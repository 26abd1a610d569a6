d1 : department. d2 : department.
e1 : employee[worksFor -> d1; street -> "1 Main St"; city -> boston].
e2 : manager[worksFor -> d2; city -> paris].
e3 : employee[worksFor -> d1].
a1 : automobile[color -> red].
X : employee <- X : manager.
X : person <- X : employee.
X : vehicle <- X : automobile.
X.address[street -> X.street; city -> X.city] <- X : employee.
X.mentor[worksFor -> D] <- X : employee[worksFor -> D].
?- X : employee.mentor[worksFor -> D].
