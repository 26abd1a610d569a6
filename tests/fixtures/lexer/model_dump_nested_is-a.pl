a1 : a. b1 : b. b2 : b. a1[partner -> b1].
X[m -> Y : c] <- X : a, X[partner -> Y].
Z : d <- Z : b, not Z : c.
?- Z : d.
