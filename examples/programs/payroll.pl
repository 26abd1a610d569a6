% Stratified negation: employees without a recorded salary.  `paid` sits
% in a lower stratum than `unpaid`, so the program evaluates bottom-up in
% two strata.
mary : employee[salary -> 900].
tim : employee.

X : paid <- X : employee[salary -> _S].
X : unpaid <- X : employee, not X : paid.

?- X : unpaid.

% Written in the bad order on purpose — the class test first, the selective
% filter last: `pathlog_shell --explain` shows the query planned from the
% posting list of `salary -> 900`, the class test a probe after it.
?- X : employee, X[salary -> 900].
