a1 : a. b1 : b. a1[partner -> b1].
X[m -> Y[n -> 1]] <- X : a, X[partner -> Y].
Y[n -> 2] <- Y : b.
