p1 : employee.
X : person <- X : employee.
p1.boss[age -> 50].
X.address[city -> C] <- X : person[city -> C].
p1[city -> berlin].
p2.boss[age -> 40].
p2 : employee.
?- X.address[city -> C].
