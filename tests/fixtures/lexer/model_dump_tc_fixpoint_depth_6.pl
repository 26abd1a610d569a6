X[desc ->> {Y}] <- X[kids ->> {Y}].
X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
X[sdesc ->> {Y}] <- X[desc ->> {Y}], Y : special, X : special.
X : parent <- X[kids ->> {Y}].
X : leaf <- X : person, not X : parent.
X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].
?- p0[desc ->> {Y}].
?- X : leaf.
?- X[sdesc ->> {Y}].
