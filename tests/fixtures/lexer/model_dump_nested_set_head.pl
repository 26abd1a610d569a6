a1 : a. b1 : b. a1[partner -> b1]. b1[k ->> {b1}].
X[m -> Y[n ->> Y..q]] <- X : a, X[partner -> Y].
Y[q ->> {Z}] <- Y[k ->> {Z}].
?- b1[n ->> {N}].
