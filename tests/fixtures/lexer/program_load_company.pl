dept0 : department.
dept1 : department.
dept2 : department.
dept3 : department.
dept4 : department.
dept5 : department.
dept6 : department.
dept7 : department.
dept8 : department.
dept9 : department.
comp0 : company[cityOf -> detroit; president -> e1].
comp1 : company[cityOf -> detroit; president -> e48].
comp2 : company[cityOf -> mannheim; president -> e4].
comp3 : company[cityOf -> mannheim; president -> e4].
comp4 : company[cityOf -> newYork; president -> e0].
comp5 : company[cityOf -> boston; president -> e5].
comp6 : company[cityOf -> mannheim; president -> e19].
comp7 : company[cityOf -> boston; president -> e21].
comp8 : company[cityOf -> boston; president -> e44].
comp9 : company[cityOf -> detroit; president -> e19].
comp10 : company[cityOf -> detroit; president -> e22].
comp11 : company[cityOf -> mannheim; president -> e11].
comp12 : company[cityOf -> chicago; president -> e16].
comp13 : company[cityOf -> mannheim; president -> e29].
comp14 : company[cityOf -> chicago; president -> e4].
comp15 : company[cityOf -> mannheim; president -> e44].
comp16 : company[cityOf -> mannheim; president -> e4].
comp17 : company[cityOf -> mannheim; president -> e22].
comp18 : company[cityOf -> seattle; president -> e29].
comp19 : company[cityOf -> boston; president -> e13].
e0 : employee[age -> 55; boss -> e48; city -> newYork; salary -> 105169; street -> "44 Main St"; worksFor -> dept3; assistants ->> {e6}; vehicles ->> {auto0, auto1, auto2}].
e1 : manager[age -> 33; boss -> e31; city -> detroit; salary -> 99957; street -> "450 Main St"; worksFor -> dept8; vehicles ->> {auto3, auto4, auto5}].
e2 : manager[age -> 35; boss -> e44; city -> newYork; salary -> 97085; street -> "701 Main St"; worksFor -> dept3; assistants ->> {e25}; vehicles ->> {auto6, auto7, auto8}].
e3 : employee[age -> 42; boss -> e7; city -> newYork; salary -> 148269; street -> "912 Main St"; worksFor -> dept0; assistants ->> {e22}; vehicles ->> {auto10, auto9, veh11}].
e4 : employee[age -> 45; boss -> e37; city -> newYork; salary -> 88848; street -> "856 Main St"; worksFor -> dept5; assistants ->> {e14}; vehicles ->> {auto12, auto13, auto14}].
e5 : manager[age -> 33; boss -> e10; city -> boston; salary -> 57372; street -> "837 Main St"; worksFor -> dept5; assistants ->> {e43, e49}; vehicles ->> {auto16, auto17, veh15}].
e6 : employee[age -> 63; boss -> e0; city -> mannheim; salary -> 126599; street -> "485 Main St"; worksFor -> dept3; assistants ->> {e30, e37}; vehicles ->> {auto18, auto19, veh20}].
e7 : employee[age -> 45; boss -> e29; city -> chicago; salary -> 130313; street -> "448 Main St"; worksFor -> dept9; assistants ->> {e15, e3}; vehicles ->> {auto22, auto23, veh21}].
e8 : manager[age -> 43; boss -> e43; city -> detroit; salary -> 86317; street -> "953 Main St"; worksFor -> dept8; vehicles ->> {auto24, veh25, veh26}].
e9 : employee[age -> 43; boss -> e14; city -> newYork; salary -> 32678; street -> "931 Main St"; worksFor -> dept3; vehicles ->> {auto27, auto29, veh28}].
e10 : employee[age -> 58; boss -> e47; city -> detroit; salary -> 39098; street -> "66 Main St"; worksFor -> dept9; assistants ->> {e5}; vehicles ->> {auto31, auto32, veh30}].
e11 : manager[age -> 33; boss -> e32; city -> boston; salary -> 43656; street -> "513 Main St"; worksFor -> dept5; vehicles ->> {auto33, auto35, veh34}].
e12 : employee[age -> 60; boss -> e41; city -> seattle; salary -> 34337; street -> "866 Main St"; worksFor -> dept8; vehicles ->> {auto38, veh36, veh37}].
e13 : employee[age -> 44; boss -> e25; city -> detroit; salary -> 58020; street -> "728 Main St"; worksFor -> dept2; vehicles ->> {auto39, auto41, veh40}].
e14 : manager[age -> 29; boss -> e4; city -> boston; salary -> 138146; street -> "367 Main St"; worksFor -> dept2; assistants ->> {e24, e9}; vehicles ->> {auto43, auto44, veh42}].
e15 : employee[age -> 62; boss -> e7; city -> seattle; salary -> 55232; street -> "363 Main St"; worksFor -> dept3; assistants ->> {e39}; vehicles ->> {auto45, veh46, veh47}].
e16 : employee[age -> 35; city -> seattle; salary -> 93084; street -> "42 Main St"; worksFor -> dept7; vehicles ->> {auto48, auto49, auto50}].
e17 : employee[age -> 48; city -> mannheim; salary -> 76169; street -> "683 Main St"; worksFor -> dept9; assistants ->> {e33, e35}; vehicles ->> {auto51, auto52, auto53}].
e18 : employee[age -> 26; boss -> e29; city -> newYork; salary -> 35515; street -> "499 Main St"; worksFor -> dept3; assistants ->> {e23}; vehicles ->> {auto55, auto56, veh54}].
e19 : employee[age -> 48; boss -> e40; city -> detroit; salary -> 116503; street -> "109 Main St"; worksFor -> dept7; assistants ->> {e26}; vehicles ->> {auto57, auto58, veh59}].
e20 : manager[age -> 26; boss -> e24; city -> chicago; salary -> 100103; street -> "286 Main St"; worksFor -> dept5; assistants ->> {e29}; vehicles ->> {auto61, auto62, veh60}].
e21 : employee[age -> 26; boss -> e46; city -> mannheim; salary -> 75722; street -> "588 Main St"; worksFor -> dept8; vehicles ->> {auto63, auto64, veh65}].
e22 : employee[age -> 34; boss -> e3; city -> seattle; salary -> 36633; street -> "923 Main St"; worksFor -> dept7; vehicles ->> {auto66, auto67, veh68}].
e23 : manager[age -> 48; boss -> e18; city -> detroit; salary -> 112421; street -> "267 Main St"; worksFor -> dept7; vehicles ->> {auto69, auto70, veh71}].
e24 : employee[age -> 53; boss -> e14; city -> chicago; salary -> 60122; street -> "223 Main St"; worksFor -> dept1; assistants ->> {e20, e42}; vehicles ->> {auto73, veh72, veh74}].
e25 : employee[age -> 21; boss -> e2; city -> seattle; salary -> 98617; street -> "155 Main St"; worksFor -> dept8; assistants ->> {e13}; vehicles ->> {auto75, auto77, veh76}].
e26 : employee[age -> 48; boss -> e19; city -> seattle; salary -> 129277; street -> "254 Main St"; worksFor -> dept9; vehicles ->> {auto78, auto79, auto80}].
e27 : employee[age -> 31; boss -> e44; city -> seattle; salary -> 92715; street -> "172 Main St"; worksFor -> dept9; vehicles ->> {auto81, auto82, auto83}].
e28 : employee[age -> 21; boss -> e49; city -> seattle; salary -> 148762; street -> "722 Main St"; worksFor -> dept5; vehicles ->> {auto84, auto85, veh86}].
e29 : employee[age -> 40; boss -> e20; city -> boston; salary -> 41690; street -> "916 Main St"; worksFor -> dept7; assistants ->> {e18, e7}; vehicles ->> {auto87, auto88, veh89}].
e30 : employee[age -> 26; boss -> e6; city -> boston; salary -> 122645; street -> "732 Main St"; worksFor -> dept3; vehicles ->> {auto92, veh90, veh91}].
e31 : employee[age -> 29; boss -> e43; city -> detroit; salary -> 47795; street -> "698 Main St"; worksFor -> dept1; assistants ->> {e1}; vehicles ->> {auto93, auto94, veh95}].
e32 : employee[age -> 62; city -> mannheim; salary -> 55159; street -> "470 Main St"; worksFor -> dept9; assistants ->> {e11, e47}; vehicles ->> {auto97, auto98, veh96}].
e33 : employee[age -> 38; boss -> e17; city -> newYork; salary -> 57306; street -> "974 Main St"; worksFor -> dept1; vehicles ->> {auto100, auto99, veh101}].
e34 : employee[age -> 64; boss -> e49; city -> mannheim; salary -> 98708; street -> "689 Main St"; worksFor -> dept3; vehicles ->> {auto103, auto104, veh102}].
e35 : employee[age -> 21; boss -> e17; city -> seattle; salary -> 104790; street -> "593 Main St"; worksFor -> dept2; vehicles ->> {veh105, veh106, veh107}].
e36 : employee[age -> 59; boss -> e37; city -> newYork; salary -> 147666; street -> "321 Main St"; worksFor -> dept3; vehicles ->> {auto108, auto109, auto110}].
e37 : employee[age -> 35; boss -> e6; city -> detroit; salary -> 83503; street -> "105 Main St"; worksFor -> dept9; assistants ->> {e36, e4}; vehicles ->> {auto112, veh111, veh113}].
e38 : employee[age -> 49; boss -> e49; city -> seattle; salary -> 65754; street -> "5 Main St"; worksFor -> dept0; assistants ->> {e40}; vehicles ->> {auto114, auto115, veh116}].
e39 : employee[age -> 25; boss -> e15; city -> newYork; salary -> 140702; street -> "168 Main St"; worksFor -> dept0; vehicles ->> {auto117, auto118, veh119}].
e40 : employee[age -> 64; boss -> e38; city -> mannheim; salary -> 55596; street -> "236 Main St"; worksFor -> dept6; assistants ->> {e19, e45, e46, e48}; vehicles ->> {auto120, auto122, veh121}].
e41 : employee[age -> 64; city -> mannheim; salary -> 123702; street -> "958 Main St"; worksFor -> dept5; assistants ->> {e12}; vehicles ->> {auto123, auto124, auto125}].
e42 : employee[age -> 38; boss -> e24; city -> newYork; salary -> 41519; street -> "266 Main St"; worksFor -> dept4; assistants ->> {e44}; vehicles ->> {auto126, auto128, veh127}].
e43 : employee[age -> 45; boss -> e5; city -> seattle; salary -> 144755; street -> "432 Main St"; worksFor -> dept1; assistants ->> {e31, e8}; vehicles ->> {auto129, auto130, auto131}].
e44 : employee[age -> 61; boss -> e42; city -> seattle; salary -> 72349; street -> "475 Main St"; worksFor -> dept3; assistants ->> {e2, e27}; vehicles ->> {auto132, auto133, auto134}].
e45 : employee[age -> 38; boss -> e40; city -> boston; salary -> 147536; street -> "246 Main St"; worksFor -> dept3; vehicles ->> {auto135, auto136, auto137}].
e46 : employee[age -> 36; boss -> e40; city -> boston; salary -> 124484; street -> "383 Main St"; worksFor -> dept9; assistants ->> {e21}; vehicles ->> {auto138, auto139, veh140}].
e47 : employee[age -> 58; boss -> e32; city -> newYork; salary -> 136664; street -> "157 Main St"; worksFor -> dept8; assistants ->> {e10}; vehicles ->> {auto141, auto142, veh143}].
e48 : employee[age -> 22; boss -> e40; city -> detroit; salary -> 49253; street -> "773 Main St"; worksFor -> dept7; assistants ->> {e0}; vehicles ->> {auto145, veh144, veh146}].
e49 : employee[age -> 26; boss -> e5; city -> newYork; salary -> 31131; street -> "320 Main St"; worksFor -> dept9; assistants ->> {e28, e34, e38}; vehicles ->> {auto147, auto149, veh148}].
auto0 : automobile[color -> red; cylinders -> 8; producedBy -> comp8].
auto1 : automobile[color -> green; cylinders -> 8; producedBy -> comp11].
auto2 : automobile[color -> blue; cylinders -> 6; producedBy -> comp9].
auto3 : automobile[color -> silver; cylinders -> 8; producedBy -> comp3].
auto4 : automobile[color -> white; cylinders -> 6; producedBy -> comp9].
auto5 : automobile[color -> black; cylinders -> 4; producedBy -> comp15].
auto6 : automobile[color -> green; cylinders -> 6; producedBy -> comp7].
auto7 : automobile[color -> white; cylinders -> 4; producedBy -> comp12].
auto8 : automobile[color -> blue; cylinders -> 8; producedBy -> comp12].
auto9 : automobile[color -> black; cylinders -> 8; producedBy -> comp2].
auto10 : automobile[color -> blue; cylinders -> 6; producedBy -> comp6].
veh11 : vehicle[color -> blue; producedBy -> comp9].
auto12 : automobile[color -> white; cylinders -> 6; producedBy -> comp5].
auto13 : automobile[color -> white; cylinders -> 4; producedBy -> comp16].
auto14 : automobile[color -> silver; cylinders -> 4; producedBy -> comp4].
veh15 : vehicle[color -> green; producedBy -> comp18].
auto16 : automobile[color -> blue; cylinders -> 4; producedBy -> comp3].
auto17 : automobile[color -> silver; cylinders -> 8; producedBy -> comp17].
auto18 : automobile[color -> silver; cylinders -> 6; producedBy -> comp17].
auto19 : automobile[color -> red; cylinders -> 4; producedBy -> comp18].
veh20 : vehicle[color -> green; producedBy -> comp6].
veh21 : vehicle[color -> white; producedBy -> comp1].
auto22 : automobile[color -> blue; cylinders -> 4; producedBy -> comp8].
auto23 : automobile[color -> silver; cylinders -> 8; producedBy -> comp1].
auto24 : automobile[color -> blue; cylinders -> 4; producedBy -> comp4].
veh25 : vehicle[color -> white; producedBy -> comp1].
veh26 : vehicle[color -> silver; producedBy -> comp8].
auto27 : automobile[color -> black; cylinders -> 8; producedBy -> comp10].
veh28 : vehicle[color -> white; producedBy -> comp5].
auto29 : automobile[color -> blue; cylinders -> 6; producedBy -> comp8].
veh30 : vehicle[color -> blue; producedBy -> comp13].
auto31 : automobile[color -> silver; cylinders -> 8; producedBy -> comp18].
auto32 : automobile[color -> red; cylinders -> 4; producedBy -> comp17].
auto33 : automobile[color -> silver; cylinders -> 4; producedBy -> comp0].
veh34 : vehicle[color -> blue; producedBy -> comp0].
auto35 : automobile[color -> black; cylinders -> 4; producedBy -> comp14].
veh36 : vehicle[color -> black; producedBy -> comp2].
veh37 : vehicle[color -> blue; producedBy -> comp16].
auto38 : automobile[color -> green; cylinders -> 4; producedBy -> comp19].
auto39 : automobile[color -> silver; cylinders -> 6; producedBy -> comp19].
veh40 : vehicle[color -> silver; producedBy -> comp11].
auto41 : automobile[color -> silver; cylinders -> 4; producedBy -> comp10].
veh42 : vehicle[color -> white; producedBy -> comp19].
auto43 : automobile[color -> green; cylinders -> 6; producedBy -> comp7].
auto44 : automobile[color -> green; cylinders -> 8; producedBy -> comp10].
auto45 : automobile[color -> white; cylinders -> 4; producedBy -> comp8].
veh46 : vehicle[color -> white; producedBy -> comp19].
veh47 : vehicle[color -> blue; producedBy -> comp0].
auto48 : automobile[color -> blue; cylinders -> 8; producedBy -> comp11].
auto49 : automobile[color -> silver; cylinders -> 6; producedBy -> comp19].
auto50 : automobile[color -> green; cylinders -> 8; producedBy -> comp18].
auto51 : automobile[color -> black; cylinders -> 8; producedBy -> comp7].
auto52 : automobile[color -> white; cylinders -> 8; producedBy -> comp11].
auto53 : automobile[color -> green; cylinders -> 8; producedBy -> comp16].
veh54 : vehicle[color -> green; producedBy -> comp2].
auto55 : automobile[color -> white; cylinders -> 4; producedBy -> comp15].
auto56 : automobile[color -> silver; cylinders -> 6; producedBy -> comp4].
auto57 : automobile[color -> red; cylinders -> 8; producedBy -> comp15].
auto58 : automobile[color -> white; cylinders -> 8; producedBy -> comp0].
veh59 : vehicle[color -> red; producedBy -> comp2].
veh60 : vehicle[color -> silver; producedBy -> comp13].
auto61 : automobile[color -> black; cylinders -> 4; producedBy -> comp1].
auto62 : automobile[color -> white; cylinders -> 4; producedBy -> comp19].
auto63 : automobile[color -> black; cylinders -> 8; producedBy -> comp9].
auto64 : automobile[color -> blue; cylinders -> 6; producedBy -> comp12].
veh65 : vehicle[color -> white; producedBy -> comp11].
auto66 : automobile[color -> red; cylinders -> 4; producedBy -> comp0].
auto67 : automobile[color -> blue; cylinders -> 8; producedBy -> comp3].
veh68 : vehicle[color -> silver; producedBy -> comp4].
auto69 : automobile[color -> red; cylinders -> 6; producedBy -> comp15].
auto70 : automobile[color -> black; cylinders -> 4; producedBy -> comp3].
veh71 : vehicle[color -> black; producedBy -> comp7].
veh72 : vehicle[color -> silver; producedBy -> comp13].
auto73 : automobile[color -> red; cylinders -> 6; producedBy -> comp4].
veh74 : vehicle[color -> black; producedBy -> comp11].
auto75 : automobile[color -> black; cylinders -> 4; producedBy -> comp6].
veh76 : vehicle[color -> red; producedBy -> comp9].
auto77 : automobile[color -> red; cylinders -> 4; producedBy -> comp18].
auto78 : automobile[color -> green; cylinders -> 4; producedBy -> comp10].
auto79 : automobile[color -> white; cylinders -> 6; producedBy -> comp11].
auto80 : automobile[color -> red; cylinders -> 4; producedBy -> comp6].
auto81 : automobile[color -> red; cylinders -> 8; producedBy -> comp11].
auto82 : automobile[color -> black; cylinders -> 8; producedBy -> comp15].
auto83 : automobile[color -> red; cylinders -> 6; producedBy -> comp13].
auto84 : automobile[color -> silver; cylinders -> 6; producedBy -> comp3].
auto85 : automobile[color -> silver; cylinders -> 8; producedBy -> comp9].
veh86 : vehicle[color -> blue; producedBy -> comp1].
auto87 : automobile[color -> blue; cylinders -> 8; producedBy -> comp0].
auto88 : automobile[color -> green; cylinders -> 6; producedBy -> comp13].
veh89 : vehicle[color -> silver; producedBy -> comp19].
veh90 : vehicle[color -> silver; producedBy -> comp1].
veh91 : vehicle[color -> white; producedBy -> comp16].
auto92 : automobile[color -> blue; cylinders -> 4; producedBy -> comp7].
auto93 : automobile[color -> black; cylinders -> 8; producedBy -> comp14].
auto94 : automobile[color -> black; cylinders -> 6; producedBy -> comp12].
veh95 : vehicle[color -> silver; producedBy -> comp14].
veh96 : vehicle[color -> black; producedBy -> comp12].
auto97 : automobile[color -> silver; cylinders -> 8; producedBy -> comp0].
auto98 : automobile[color -> white; cylinders -> 8; producedBy -> comp1].
auto99 : automobile[color -> blue; cylinders -> 4; producedBy -> comp3].
auto100 : automobile[color -> green; cylinders -> 6; producedBy -> comp3].
veh101 : vehicle[color -> red; producedBy -> comp7].
veh102 : vehicle[color -> silver; producedBy -> comp1].
auto103 : automobile[color -> white; cylinders -> 6; producedBy -> comp15].
auto104 : automobile[color -> red; cylinders -> 4; producedBy -> comp2].
veh105 : vehicle[color -> white; producedBy -> comp9].
veh106 : vehicle[color -> red; producedBy -> comp14].
veh107 : vehicle[color -> white; producedBy -> comp16].
auto108 : automobile[color -> red; cylinders -> 8; producedBy -> comp11].
auto109 : automobile[color -> red; cylinders -> 8; producedBy -> comp6].
auto110 : automobile[color -> green; cylinders -> 6; producedBy -> comp6].
veh111 : vehicle[color -> blue; producedBy -> comp18].
auto112 : automobile[color -> black; cylinders -> 4; producedBy -> comp18].
veh113 : vehicle[color -> blue; producedBy -> comp3].
auto114 : automobile[color -> blue; cylinders -> 8; producedBy -> comp18].
auto115 : automobile[color -> white; cylinders -> 4; producedBy -> comp12].
veh116 : vehicle[color -> black; producedBy -> comp16].
auto117 : automobile[color -> blue; cylinders -> 8; producedBy -> comp5].
auto118 : automobile[color -> silver; cylinders -> 6; producedBy -> comp13].
veh119 : vehicle[color -> green; producedBy -> comp8].
auto120 : automobile[color -> black; cylinders -> 6; producedBy -> comp6].
veh121 : vehicle[color -> silver; producedBy -> comp8].
auto122 : automobile[color -> black; cylinders -> 6; producedBy -> comp7].
auto123 : automobile[color -> silver; cylinders -> 4; producedBy -> comp16].
auto124 : automobile[color -> blue; cylinders -> 6; producedBy -> comp14].
auto125 : automobile[color -> blue; cylinders -> 4; producedBy -> comp6].
auto126 : automobile[color -> green; cylinders -> 8; producedBy -> comp15].
veh127 : vehicle[color -> green; producedBy -> comp11].
auto128 : automobile[color -> white; cylinders -> 8; producedBy -> comp0].
auto129 : automobile[color -> blue; cylinders -> 8; producedBy -> comp10].
auto130 : automobile[color -> blue; cylinders -> 8; producedBy -> comp5].
auto131 : automobile[color -> blue; cylinders -> 4; producedBy -> comp8].
auto132 : automobile[color -> silver; cylinders -> 8; producedBy -> comp18].
auto133 : automobile[color -> silver; cylinders -> 4; producedBy -> comp11].
auto134 : automobile[color -> white; cylinders -> 6; producedBy -> comp13].
auto135 : automobile[color -> red; cylinders -> 4; producedBy -> comp7].
auto136 : automobile[color -> green; cylinders -> 4; producedBy -> comp3].
auto137 : automobile[color -> red; cylinders -> 6; producedBy -> comp6].
auto138 : automobile[color -> blue; cylinders -> 8; producedBy -> comp1].
auto139 : automobile[color -> silver; cylinders -> 4; producedBy -> comp4].
veh140 : vehicle[color -> blue; producedBy -> comp11].
auto141 : automobile[color -> white; cylinders -> 8; producedBy -> comp5].
auto142 : automobile[color -> white; cylinders -> 4; producedBy -> comp3].
veh143 : vehicle[color -> white; producedBy -> comp2].
veh144 : vehicle[color -> red; producedBy -> comp3].
auto145 : automobile[color -> white; cylinders -> 6; producedBy -> comp19].
veh146 : vehicle[color -> silver; producedBy -> comp11].
auto147 : automobile[color -> black; cylinders -> 4; producedBy -> comp0].
veh148 : vehicle[color -> red; producedBy -> comp0].
auto149 : automobile[color -> red; cylinders -> 6; producedBy -> comp5].
X : employee <- X : manager.
X : person <- X : employee.
X : vehicle <- X : automobile.
X.address[street -> X.street; city -> X.city] <- X : employee.
X.mentor[worksFor -> D] <- X : employee[worksFor -> D].
?- X : employee.mentor[worksFor -> D].
