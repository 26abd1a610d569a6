% every lexer path the corpus does not take
# a hash comment
// a slash comment
müller : person[name -> "Müller, \"Hans\""; age -> -42; tab -> "a\tb\\c\nd"].
Ärger : émotion. _tmp : x. öl.färbe[ton -> "braun"].
straße..häuser[nr -> 0; nr2 -> 9223372036854775807; nr3 -> -9223372036854775807].
X[(M.tc) ->> {Y}] <- M : baseMethod, X..(M.tc)[M ->> {Y}], not X : übel.
"multi
line string" : str. x.y@(1, "two", drei)[a => b; c =>> (d, e)].
?- X : person[age -> A], A.lt@(0).
p."quoted".r. 日本 : 語.
