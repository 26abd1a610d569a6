a1 : thing. a2 : thing. a3 : thing.
b1[m -> a3]. b2[m -> a1]. b3[m -> a2].
b9 : skip.
X : skip <- X : skipper.
A.tag[of -> B] <- B[m -> A], not B : skip.
?- X.tag[of -> Y].
