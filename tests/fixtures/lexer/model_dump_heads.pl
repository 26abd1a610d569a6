tim : person. ann : person. bob : person. kim : person.
tim[kids ->> {bob, ann}]. ann[kids ->> {kim}].
tim.boss[name -> "big"].
person[age => integer; kids =>> person].
kids : baseMethod.
X[(M.tc) ->> {Y}] <- M : baseMethod, X[M ->> {Y}].
X[(M.tc) ->> {Y}] <- M : baseMethod, X..(M.tc)[M ->> {Y}].
X.boss.car[color -> red] <- X : person.
X.home[near -> X.office] <- X[kids ->> {Y}].
X.rank@(Y)[of -> X; by -> Y] <- X[kids ->> {Y}].
X[tags ->> {zeta, Y, alpha}] <- X[kids ->> {Y}].
C[size => integer] <- X : C, X[kids ->> {Y}].
?- X.boss.car[color -> C].
?- X[(kids.tc) ->> {Y}].
