tim[kids ->> {bob, ann}]. ann[kids ->> {kim}]. bob[kids ->> {eve, dan}].
X : person <- X[kids ->> {Y}].
X[friends ->> Y..kids] <- X[kids ->> {Y}].
X[grand ->> X..kids..kids] <- X : person.
X.circle[of -> X; members ->> X..kids..kids] <- X : person.
?- X[grand ->> {Y}].
