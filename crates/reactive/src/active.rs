//! Active rules: event–condition–action triggers over a semantic structure.
//!
//! The second "other kind of rule language" the paper mentions.  An
//! [`ActiveStore`] wraps a [`Structure`]; every primitive mutation performed
//! through the store is an *event*.  Each [`EcaRule`] names the event kind it
//! reacts to, a PathLog body as its *condition*, and a list of mutation
//! templates as its *action*.  Actions are themselves primitive mutations, so
//! they can trigger further rules; cascades run depth-first — a rule's
//! actions are applied, and their cascades run to completion, before the
//! next rule of the same event solves its condition, so rules can chain
//! within one event in priority order — and are bounded by
//! [`ActiveOptions::max_cascade_depth`] and
//! [`ActiveOptions::max_total_firings`].
//!
//! When a rule fires, the event's participants are available to the condition
//! and action terms through reserved variables:
//!
//! | event | bound variables |
//! |---|---|
//! | scalar asserted / retracted | `Receiver`, `Value` |
//! | set member added / removed | `Receiver`, `Member` |
//! | class membership added | `Object`, `Class` |
//!
//! **How a rule is matched.**  Each rule is compiled once, when it is added,
//! into a trigger program.  Its condition is a query body
//! ([`compile_query`]) whose slots of the event's reserved variables are
//! *seeded*: the body is prepared once per store ([`prepare_seeded`] — its
//! names resolved, its plan made with those slots bound) and every event
//! runs that plan from one frame binding them ([`run_prepared`]).  A
//! condition is prepared again while some name of it is still unknown to
//! the structure (an unknown name denotes nothing, and the structure may
//! learn it), and after a rollback.  The solutions of one rule fire in
//! canonical key order — the variables of the condition compared by name,
//! their objects by id — which is the order of a
//! [`Condition`](pathlog_core::plan::Condition)'s run and of a query's
//! [`Answers`](pathlog_core::engine::Answers) rows; each distinct solution
//! fires once.  An empty condition holds once, of the event.  Each action is
//! lowered to a primitive-mutation template whose operands are an event
//! participant, a slot of the condition's frame or a name (interned at its
//! first firing and cached per store); only an operand that is neither a
//! variable nor a name is valuated, under the bindings of its solution.
//! Events find their rules through a `(kind, method)` table filled as
//! events arrive, so a mutation no rule watches costs one lookup.
//!
//! **Errors and partial commits.**  A cascade that exceeds
//! [`ActiveOptions::max_cascade_depth`] or
//! [`ActiveOptions::max_total_firings`] (or whose action fails to valuate)
//! aborts with an error **after** some mutations have been applied: by
//! default the store keeps everything committed before the error (partial
//! commit — see [`ReactiveError::LimitExceeded`]).  Set
//! [`ActiveOptions::rollback_on_error`] to restore the pre-mutation
//! structure instead; the snapshot it restores from is a
//! [`Structure::clone`], which shares every table with the live structure.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use pathlog_core::error::Error as CoreError;
use pathlog_core::names::{Name, Var};
use pathlog_core::plan::{compile_query, prepare_seeded, run_prepared, CompiledRule, FrameRun, Prepared};
use pathlog_core::program::Literal;
use pathlog_core::semantics::valuate;
use pathlog_core::structure::{Oid, Structure};
use pathlog_core::term::Term;

use crate::error::{ReactiveError, Result};
use crate::notify::{Epoch, Notification, NotificationKind, Subscribers, Subscription};

/// The kind of primitive mutation an ECA rule reacts to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A scalar fact for the named method was asserted.
    ScalarAsserted(Name),
    /// A scalar fact for the named method was retracted.
    ScalarRetracted(Name),
    /// A member was added to a set-valued fact of the named method.
    SetMemberAdded(Name),
    /// A member was removed from a set-valued fact of the named method.
    SetMemberRemoved(Name),
    /// An object became a member of the named class.
    ClassAdded(Name),
}

impl Event {
    /// The kind of mutation the event is.
    fn kind(&self) -> EventKind {
        match self {
            Event::ScalarAsserted(_) => EventKind::ScalarAsserted,
            Event::ScalarRetracted(_) => EventKind::ScalarRetracted,
            Event::SetMemberAdded(_) => EventKind::SetMemberAdded,
            Event::SetMemberRemoved(_) => EventKind::SetMemberRemoved,
            Event::ClassAdded(_) => EventKind::ClassAdded,
        }
    }

    /// The method/class name the event watches.
    pub fn name(&self) -> &Name {
        match self {
            Event::ScalarAsserted(n)
            | Event::ScalarRetracted(n)
            | Event::SetMemberAdded(n)
            | Event::SetMemberRemoved(n)
            | Event::ClassAdded(n) => n,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::ScalarAsserted(n) => write!(f, "on assert {n} ->"),
            Event::ScalarRetracted(n) => write!(f, "on retract {n} ->"),
            Event::SetMemberAdded(n) => write!(f, "on add {n} ->>"),
            Event::SetMemberRemoved(n) => write!(f, "on remove {n} ->>"),
            Event::ClassAdded(n) => write!(f, "on classify : {n}"),
        }
    }
}

/// An action template: a primitive mutation whose participants are PathLog
/// references evaluated under the rule's bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcaAction {
    /// Assert `receiver[method -> value]`.
    AssertScalar {
        /// The receiver reference.
        receiver: Term,
        /// The method name.
        method: Name,
        /// The value reference.
        value: Term,
    },
    /// Assert `member ∈ receiver..method`.
    AddSetMember {
        /// The receiver reference.
        receiver: Term,
        /// The method name.
        method: Name,
        /// The member reference.
        member: Term,
    },
    /// Assert `object : class`.
    AddIsA {
        /// The object reference.
        object: Term,
        /// The class name.
        class: Name,
    },
    /// Retract the scalar fact `receiver[method -> _]`.
    RetractScalar {
        /// The receiver reference.
        receiver: Term,
        /// The method name.
        method: Name,
    },
    /// Retract `member` from `receiver..method`.
    RemoveSetMember {
        /// The receiver reference.
        receiver: Term,
        /// The method name.
        method: Name,
        /// The member reference.
        member: Term,
    },
}

impl fmt::Display for EcaAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcaAction::AssertScalar {
                receiver,
                method,
                value,
            } => write!(f, "assert {receiver}[{method} -> {value}]"),
            EcaAction::AddSetMember {
                receiver,
                method,
                member,
            } => {
                write!(f, "assert {receiver}[{method} ->> {{{member}}}]")
            }
            EcaAction::AddIsA { object, class } => write!(f, "assert {object} : {class}"),
            EcaAction::RetractScalar { receiver, method } => write!(f, "retract {receiver}.{method}"),
            EcaAction::RemoveSetMember {
                receiver,
                method,
                member,
            } => {
                write!(f, "retract {member} from {receiver}..{method}")
            }
        }
    }
}

/// One event–condition–action rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcaRule {
    /// A name used in traces and errors, shared with every firing
    /// notification of the rule.
    pub name: Arc<str>,
    /// The triggering event.
    pub event: Event,
    /// The condition: a PathLog body, evaluated with the event's reserved
    /// variables pre-bound.  An empty condition always holds.
    pub condition: Vec<Literal>,
    /// The actions, applied for every solution of the condition.
    pub actions: Vec<EcaAction>,
    /// Higher priorities run first when several rules match one event.
    pub priority: i64,
}

impl EcaRule {
    /// A rule with priority 0.
    pub fn new(name: impl Into<Arc<str>>, event: Event, condition: Vec<Literal>, actions: Vec<EcaAction>) -> Self {
        EcaRule {
            name: name.into(),
            event,
            condition,
            actions,
            priority: 0,
        }
    }

    /// Set the priority.
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }
}

impl fmt::Display for EcaRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} ", self.name, self.event)?;
        if !self.condition.is_empty() {
            write!(f, "IF ")?;
            for (i, l) in self.condition.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, " ")?;
        }
        write!(f, "DO ")?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Options of the active store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveOptions {
    /// Maximum trigger cascade depth.  The external mutation runs at
    /// depth 0; a mutation performed by an action runs one level below its
    /// trigger, so `max_cascade_depth = N` permits exactly `N` levels of
    /// *triggered* mutations ([`ActiveStats::max_depth_reached`] can reach
    /// `N`) and the first mutation at depth `N + 1` aborts the cascade.
    /// With `N = 0` only the external mutation may change the structure —
    /// rules still fire on it, but any action that performs a mutation
    /// errors.
    pub max_cascade_depth: usize,
    /// Maximum number of rule firings for a single external mutation.
    pub max_total_firings: usize,
    /// Restore the pre-mutation structure when a cascade errors (depth /
    /// firing limit, invalid action) instead of keeping the partially
    /// committed mutations.  The snapshot taken per external mutation is a
    /// [`Structure::clone`]: it shares every table, and a cascade's writes
    /// detach only the chunks they touch.
    pub rollback_on_error: bool,
}

impl Default for ActiveOptions {
    fn default() -> Self {
        ActiveOptions {
            max_cascade_depth: 32,
            max_total_firings: 100_000,
            rollback_on_error: false,
        }
    }
}

/// Statistics of one external mutation (including its cascade).  Counters
/// saturate instead of wrapping, so aggregating many mutations (see
/// [`ActiveStats::merge`]) cannot overflow in debug builds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ActiveStats {
    /// Rule firings (one per rule and condition solution).
    pub firings: usize,
    /// Primitive mutations that actually changed the structure.
    pub mutations: usize,
    /// The deepest cascade level reached (0 = only the external mutation).
    pub max_depth_reached: usize,
}

impl ActiveStats {
    /// Fold the counters of another mutation into this one: `firings` and
    /// `mutations` sum with saturating arithmetic, `max_depth_reached`
    /// takes the maximum — so a batch of mutations aggregates without
    /// overflow panics in debug builds, mirroring
    /// [`EvalStats::merge`](pathlog_core::engine::EvalStats::merge).
    pub fn merge(&mut self, other: &ActiveStats) {
        self.firings = self.firings.saturating_add(other.firings);
        self.mutations = self.mutations.saturating_add(other.mutations);
        self.max_depth_reached = self.max_depth_reached.max(other.max_depth_reached);
    }
}

/// A structure wrapped with ECA triggers.
#[derive(Debug, Clone, Default)]
pub struct ActiveStore {
    structure: Structure,
    /// Shared, so that a cascade holds the rules while it mutates the store
    /// without copying one.
    rules: Arc<Vec<EcaRule>>,
    /// The trigger program of each rule, index for index.
    triggers: Arc<Vec<Trigger>>,
    /// What the triggers resolved against this store's structure.  Emptied
    /// when a rollback restores the structure: a name interned in the
    /// aborted cascade is gone from it.
    resolved: Resolved,
    options: ActiveOptions,
    /// Notify-stream fan-out (see [`crate::notify`]).  Not cloned with the
    /// store: a clone is an independent store and starts unobserved.
    subscribers: Subscribers,
    /// External mutation sequence number; every external mutation —
    /// successful or not — opens the next epoch.
    epoch: Epoch,
}

impl ActiveStore {
    /// Wrap an existing structure.
    pub fn new(structure: Structure) -> Self {
        Self::with_options(structure, ActiveOptions::default())
    }

    /// Wrap a structure with the given options.
    pub fn with_options(structure: Structure, options: ActiveOptions) -> Self {
        ActiveStore {
            structure,
            rules: Arc::default(),
            triggers: Arc::default(),
            resolved: Resolved::default(),
            options,
            subscribers: Subscribers::default(),
            epoch: 0,
        }
    }

    /// Register a trigger.
    pub fn add_rule(&mut self, rule: EcaRule) -> &mut Self {
        let trigger = Trigger::compile(&rule, self.resolved.names.len());
        self.resolved.names.resize(trigger.names_end, 0);
        self.resolved.prepared.push(None);
        self.resolved.dispatch.clear();
        Arc::make_mut(&mut self.triggers).push(trigger);
        Arc::make_mut(&mut self.rules).push(rule);
        self
    }

    /// Add a rule only if it passes static analysis: the rule's condition
    /// is checked in isolation and the rule is rejected with
    /// [`ReactiveError::StaticRejected`] when the analyzer reports an
    /// `Error`-severity diagnostic.  Warnings — including the cascade
    /// warnings the *combined* rule set may raise — do not block
    /// installation; call [`ActiveStore::analyze`] to see them.
    pub fn add_rule_checked(&mut self, rule: EcaRule) -> Result<&mut Self> {
        let analysis =
            crate::analyze::analyze_eca_rules(std::slice::from_ref(&rule), self.options.max_cascade_depth, None);
        if !analysis.no_errors() {
            let errors: Vec<String> = analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == pathlog_core::analysis::Severity::Error)
                .map(|d| d.to_string())
                .collect();
            return Err(ReactiveError::StaticRejected(format!(
                "rule `{}`: {}",
                rule.name,
                errors.join("; ")
            )));
        }
        self.add_rule(rule);
        Ok(self)
    }

    /// Statically analyze the installed rule set against this store's
    /// structure and [`ActiveOptions::max_cascade_depth`]: condition
    /// safety, the trigger graph, cascade cycles (PL010) and whether the
    /// static cascade bound exceeds the configured limit (PL011).  A
    /// cascade diagnosed here statically is one [`ReactiveError::LimitExceeded`]
    /// would otherwise only catch at runtime, mid-mutation.
    pub fn analyze(&self) -> pathlog_core::analysis::Analysis {
        crate::analyze::analyze_eca_rules(&self.rules, self.options.max_cascade_depth, Some(&self.structure))
    }

    /// The registered triggers.
    pub fn rules(&self) -> &[EcaRule] {
        &self.rules
    }

    // ---------------------------------------------------------- notification

    /// Register a notify-stream subscriber: every subsequent epoch's
    /// changes, firings and quiescent/aborted barrier are pushed to the
    /// returned [`Subscription`] instead of the subscriber polling the
    /// structure (see [`crate::notify`] for the stream contract).  Dropping
    /// the subscription unsubscribes.
    pub fn subscribe(&mut self) -> Subscription {
        self.subscribers.subscribe()
    }

    /// The number of live subscribers as of the last emission.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// The current epoch: how many external mutations this store has run
    /// (successfully or not).  0 before the first mutation.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Fan a notification out to the subscribers (free when there are
    /// none).
    fn notify(&mut self, round: usize, kind: NotificationKind) {
        if self.subscribers.is_empty() {
            return;
        }
        self.subscribers.emit(Notification {
            epoch: self.epoch,
            round,
            kind,
        });
    }

    /// The public event a `(kind, method)` pair raises, for change
    /// notifications; `None` for anonymous methods (which no rule — and no
    /// subscriber — can name).
    fn public_event(&self, kind: EventKind, method: Oid) -> Option<Event> {
        let name = self.structure.name_of(method)?.clone();
        Some(match kind {
            EventKind::ScalarAsserted => Event::ScalarAsserted(name),
            EventKind::ScalarRetracted => Event::ScalarRetracted(name),
            EventKind::SetMemberAdded => Event::SetMemberAdded(name),
            EventKind::SetMemberRemoved => Event::SetMemberRemoved(name),
            EventKind::ClassAdded => Event::ClassAdded(name),
        })
    }

    /// Emit a change notification for a committed mutation's event.
    fn notify_change(&mut self, round: usize, kind: EventKind, method: Oid) {
        if self.subscribers.is_empty() {
            return;
        }
        if let Some(event) = self.public_event(kind, method) {
            self.notify(round, NotificationKind::Change { event });
        }
    }

    /// Read access to the wrapped structure.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Unwrap the structure.
    pub fn into_structure(self) -> Structure {
        self.structure
    }

    /// Intern a name (no event fires for this).
    pub fn oid(&mut self, name: &str) -> Oid {
        self.structure.atom(name)
    }

    /// Intern an integer (no event fires for this).
    pub fn int(&mut self, value: i64) -> Oid {
        self.structure.int(value)
    }

    // ------------------------------------------------------------- mutations

    /// Assert a scalar fact, firing matching triggers.
    pub fn assert_scalar(&mut self, method: Oid, receiver: Oid, result: Oid) -> Result<ActiveStats> {
        self.run_external(Mutation::AssertScalar {
            method,
            receiver,
            result,
        })
    }

    /// Retract a scalar fact, firing matching triggers.
    pub fn retract_scalar(&mut self, method: Oid, receiver: Oid) -> Result<ActiveStats> {
        self.run_external(Mutation::RetractScalar { method, receiver })
    }

    /// Add a set member, firing matching triggers.
    pub fn add_set_member(&mut self, method: Oid, receiver: Oid, member: Oid) -> Result<ActiveStats> {
        self.run_external(Mutation::AddSetMember {
            method,
            receiver,
            member,
        })
    }

    /// Remove a set member, firing matching triggers.
    pub fn remove_set_member(&mut self, method: Oid, receiver: Oid, member: Oid) -> Result<ActiveStats> {
        self.run_external(Mutation::RemoveSetMember {
            method,
            receiver,
            member,
        })
    }

    /// Add a class membership, firing matching triggers.
    pub fn add_isa(&mut self, object: Oid, class: Oid) -> Result<ActiveStats> {
        self.run_external(Mutation::AddIsA { object, class })
    }

    // -------------------------------------------------------------- internal

    /// Run one external mutation and its cascade.  On error the structure keeps the mutations committed
    /// before the failure (partial commit) unless
    /// [`ActiveOptions::rollback_on_error`] restores the snapshot taken
    /// here.
    fn run_external(&mut self, mutation: Mutation) -> Result<ActiveStats> {
        self.epoch = self.epoch.saturating_add(1);
        let snapshot = self.options.rollback_on_error.then(|| self.structure.clone());
        let mut stats = ActiveStats::default();
        match self.mutate(mutation, 0, &mut stats) {
            Ok(()) => {
                self.notify(stats.max_depth_reached, NotificationKind::Quiescent { stats });
                Ok(stats)
            }
            Err(e) => {
                if let Some(saved) = snapshot {
                    self.structure = saved;
                    self.resolved.forget();
                }
                self.notify(
                    stats.max_depth_reached,
                    NotificationKind::Aborted { reason: e.to_string() },
                );
                Err(e)
            }
        }
    }

    /// Apply one primitive mutation: the event it raises, or `None` when
    /// the structure did not change.
    fn apply_mutation(&mut self, mutation: Mutation) -> Result<Option<Raised>> {
        let raised = |changed: bool, kind, watched, participants| {
            changed.then_some(Raised {
                kind,
                watched,
                participants,
            })
        };
        Ok(match mutation {
            Mutation::AssertScalar {
                method,
                receiver,
                result,
            } => {
                let changed = self.structure.assert_scalar(method, receiver, &[], result)?.is_new();
                raised(changed, EventKind::ScalarAsserted, method, [receiver, result])
            }
            Mutation::RetractScalar { method, receiver } => self
                .structure
                .retract_scalar(method, receiver, &[])
                .and_then(|old| raised(true, EventKind::ScalarRetracted, method, [receiver, old])),
            Mutation::AddSetMember {
                method,
                receiver,
                member,
            } => {
                let changed = self.structure.assert_set_member(method, receiver, &[], member).is_new();
                raised(changed, EventKind::SetMemberAdded, method, [receiver, member])
            }
            Mutation::RemoveSetMember {
                method,
                receiver,
                member,
            } => {
                let changed = self.structure.retract_set_member(method, receiver, &[], member);
                raised(changed, EventKind::SetMemberRemoved, method, [receiver, member])
            }
            Mutation::AddIsA { object, class } => {
                let changed = self.structure.add_isa(object, class);
                raised(changed, EventKind::ClassAdded, class, [object, class])
            }
        })
    }

    /// The rule indices watching `(kind, method)`, in firing order
    /// (priority descending, then definition order): read from the
    /// dispatch table, and found by a scan of the rules the first time.
    fn dispatch(&mut self, kind: EventKind, method: Oid) -> Arc<[usize]> {
        if let Some(rules) = self.resolved.dispatch.get(&(kind, method)) {
            return Arc::clone(rules);
        }
        let mut matching: Vec<usize> = match self.structure.name_of(method) {
            Some(watched) => (0..self.rules.len())
                .filter(|&i| self.rules[i].event.kind() == kind && self.rules[i].event.name() == watched)
                .collect(),
            None => Vec::new(),
        };
        matching.sort_by_key(|&i| (-self.rules[i].priority, i));
        let matching: Arc<[usize]> = matching.into();
        self.resolved.dispatch.insert((kind, method), Arc::clone(&matching));
        matching
    }

    /// One mutation and, depth-first, everything it triggers (see the module
    /// docs).
    fn mutate(&mut self, mutation: Mutation, depth: usize, stats: &mut ActiveStats) -> Result<()> {
        if depth > self.options.max_cascade_depth {
            return Err(ReactiveError::LimitExceeded(format!(
                "trigger cascade exceeded depth {}",
                self.options.max_cascade_depth
            )));
        }
        stats.max_depth_reached = stats.max_depth_reached.max(depth);

        // 1. Apply the primitive mutation; only real changes raise events
        // (and change notifications).
        let Some(event) = self.apply_mutation(mutation)? else {
            return Ok(());
        };
        stats.mutations = stats.mutations.saturating_add(1);
        self.notify_change(depth, event.kind, event.watched);

        // 2. Fire each matching rule for every solution of its condition.
        let matching = self.dispatch(event.kind, event.watched);
        if matching.is_empty() {
            return Ok(());
        }
        let (rules, triggers) = (Arc::clone(&self.rules), Arc::clone(&self.triggers));
        for &index in matching.iter() {
            let trigger = &triggers[index];
            let solutions = self.solve(index, trigger, &event)?;
            for frame in solutions.frames() {
                stats.firings = stats.firings.saturating_add(1);
                if stats.firings > self.options.max_total_firings {
                    return Err(ReactiveError::LimitExceeded(format!(
                        "more than {} trigger firings for one mutation",
                        self.options.max_total_firings
                    )));
                }
                self.notify(
                    depth,
                    NotificationKind::Firing {
                        rule: rules[index].name.clone(),
                    },
                );
                for template in &trigger.actions {
                    let next = self.instantiate(template, trigger, frame, &event)?;
                    self.mutate(next, depth + 1, stats)?;
                }
            }
        }
        Ok(())
    }

    /// The solutions of rule `index`'s condition for `event`, in canonical
    /// key order: its prepared plan run from the frame binding the event's
    /// participants.
    fn solve(&mut self, index: usize, trigger: &Trigger, event: &Raised) -> Result<FrameRun> {
        let condition = &trigger.condition;
        let seeds = trigger.seeded.iter().zip(event.participants);
        let start = FrameRun::single(condition.slot_count(), seeds.filter_map(|(s, o)| Some(((*s)?, o))));
        if condition.positives().is_empty() && condition.negations().is_empty() {
            return Ok(start);
        }
        let prepared = match &mut self.resolved.prepared[index] {
            Some(prepared) if prepared.knows_every_name() => prepared,
            stale => {
                let seeded: Vec<usize> = trigger.seeded.iter().flatten().copied().collect();
                stale.insert(prepare_seeded(&self.structure, condition, &seeded))
            }
        };
        Ok(run_prepared(&self.structure, condition, prepared, start)?)
    }

    /// The primitive mutation `template` makes of one solution `frame` of
    /// its trigger's condition for `event`: its name first, then its
    /// receiver (object), then its value (member) — names are interned in
    /// the order the action reads them.
    fn instantiate(
        &mut self,
        template: &Template,
        trigger: &Trigger,
        frame: &[u32],
        event: &Raised,
    ) -> Result<Mutation> {
        let (cell, name) = &template.name;
        let name = self.name(*cell, name);
        let receiver = self.operand(&template.receiver, trigger, frame, event)?;
        let value = match &template.value {
            Some(arg) => Some(self.operand(arg, trigger, frame, event)?),
            None => None,
        };
        let value = || value.expect("a template of this kind has a value");
        Ok(match template.kind {
            ActionKind::AssertScalar => Mutation::AssertScalar {
                method: name,
                receiver,
                result: value(),
            },
            ActionKind::AddSetMember => Mutation::AddSetMember {
                method: name,
                receiver,
                member: value(),
            },
            ActionKind::RemoveSetMember => Mutation::RemoveSetMember {
                method: name,
                receiver,
                member: value(),
            },
            ActionKind::RetractScalar => Mutation::RetractScalar { method: name, receiver },
            ActionKind::AddIsA => Mutation::AddIsA {
                object: receiver,
                class: name,
            },
        })
    }

    /// The object `name` denotes, interned at its first use and then read
    /// from `cell` of the store's name cache.
    fn name(&mut self, cell: usize, name: &Name) -> Oid {
        match self.resolved.names[cell] {
            0 => {
                let oid = self.structure.ensure_name(name);
                self.resolved.names[cell] = oid.0 + 1;
                oid
            }
            c => Oid(c - 1),
        }
    }

    /// The one object an action operand denotes for a solution.
    fn operand(&mut self, operand: &Arg, trigger: &Trigger, frame: &[u32], event: &Raised) -> Result<Oid> {
        let what = operand.what;
        match &operand.source {
            Source::Event(i) => Ok(event.participants[*i]),
            Source::Slot(s) if frame[*s] != 0 => Ok(Oid(frame[*s] - 1)),
            Source::Name(cell, name) => Ok(self.name(*cell, name)),
            // What valuating the variable reports.
            Source::Slot(_) | Source::Unbound => {
                Err(CoreError::NotGround(format!("variable {} is unbound", operand.term)).into())
            }
            Source::Valuated => {
                let mut bindings = trigger.condition.bindings_of(frame);
                for (i, var) in trigger.reserved.iter().enumerate() {
                    if trigger.seeded[i].is_none() {
                        bindings = bindings
                            .bind(var, event.participants[i])
                            .expect("a reserved variable no slot holds");
                    }
                }
                let objects = valuate(&self.structure, &operand.term, &bindings)?;
                match objects.len() {
                    1 => Ok(objects.into_iter().next().expect("len checked")),
                    0 => Err(ReactiveError::InvalidAction(format!(
                        "{what} `{}` denotes no object",
                        operand.term
                    ))),
                    n => Err(ReactiveError::InvalidAction(format!(
                        "{what} `{}` denotes {n} objects, expected one",
                        operand.term
                    ))),
                }
            }
        }
    }
}

/// A primitive mutation (all participants resolved to objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    AssertScalar { method: Oid, receiver: Oid, result: Oid },
    RetractScalar { method: Oid, receiver: Oid },
    AddSetMember { method: Oid, receiver: Oid, member: Oid },
    RemoveSetMember { method: Oid, receiver: Oid, member: Oid },
    AddIsA { object: Oid, class: Oid },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    ScalarAsserted,
    ScalarRetracted,
    SetMemberAdded,
    SetMemberRemoved,
    ClassAdded,
}

impl EventKind {
    /// The reserved variables of the event's two participants.
    fn reserved(self) -> [&'static str; 2] {
        match self {
            EventKind::ScalarAsserted | EventKind::ScalarRetracted => ["Receiver", "Value"],
            EventKind::SetMemberAdded | EventKind::SetMemberRemoved => ["Receiver", "Member"],
            EventKind::ClassAdded => ["Object", "Class"],
        }
    }
}

/// The event a mutation that changed the structure raises.
#[derive(Debug, Clone, Copy)]
struct Raised {
    kind: EventKind,
    /// The method (class) the event is watched under.
    watched: Oid,
    /// The objects of the kind's reserved variables, in their order.
    participants: [Oid; 2],
}

/// What the triggers of one store resolved against its structure, each
/// part filled as events arrive.
#[derive(Debug, Clone, Default)]
struct Resolved {
    /// The rules watching each `(kind, method)` an event was raised under,
    /// in firing order.
    dispatch: BTreeMap<(EventKind, Oid), Arc<[usize]>>,
    /// Per rule, its condition prepared against the structure.
    prepared: Vec<Option<Prepared>>,
    /// Per name of an action, the object it denotes (id + 1) once interned,
    /// `0` before.
    names: Vec<u32>,
}

impl Resolved {
    /// Forget everything resolved: the structure was restored to an earlier
    /// state.
    fn forget(&mut self) {
        self.dispatch.clear();
        self.prepared.fill(None);
        self.names.fill(0);
    }
}

/// A rule compiled once: its condition with the event's participants as
/// seeded slots, and its actions as mutation templates.
#[derive(Debug, Clone)]
struct Trigger {
    condition: CompiledRule,
    /// The event's reserved variables.
    reserved: [Var; 2],
    /// The slot of each reserved variable the condition mentions.
    seeded: [Option<usize>; 2],
    actions: Vec<Template>,
    /// One past the last cell of the store's name cache the templates use.
    names_end: usize,
}

/// The mutation an action makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActionKind {
    AssertScalar,
    AddSetMember,
    AddIsA,
    RetractScalar,
    RemoveSetMember,
}

/// An action lowered to a primitive-mutation template.
#[derive(Debug, Clone)]
struct Template {
    kind: ActionKind,
    /// The method (class) name: its cell in the store's name cache, and
    /// the name.
    name: (usize, Name),
    /// The receiver (object).
    receiver: Arg,
    /// The value (member), for the kinds that have one.
    value: Option<Arg>,
}

/// One operand of a template, with its term and role for error messages.
#[derive(Debug, Clone)]
struct Arg {
    source: Source,
    term: Term,
    what: &'static str,
}

/// Where an operand's object comes from.
#[derive(Debug, Clone)]
enum Source {
    /// The event's participant `i`.
    Event(usize),
    /// A slot of the condition's frame; unbound when only a negated literal
    /// mentions its variable.
    Slot(usize),
    /// A name: its cell in the store's name cache, and the name.
    Name(usize, Name),
    /// A variable neither the event nor the condition binds.
    Unbound,
    /// Any other reference, valuated under the solution's bindings.
    Valuated,
}

impl Trigger {
    /// Compile `rule`, its action names taking the name-cache cells from
    /// `names` on.
    fn compile(rule: &EcaRule, names: usize) -> Trigger {
        let condition = compile_query(rule.condition.iter().map(|l| (l.positive, &l.term)));
        let reserved = rule.event.kind().reserved().map(Var::new);
        let slot_of = |var: &Var| condition.slot_vars().iter().position(|v| v == var);
        let seeded = [slot_of(&reserved[0]), slot_of(&reserved[1])];
        let next = Cell::new(names);
        let cell = || next.replace(next.get() + 1);
        let arg = |term: &Term, what: &'static str| {
            let source = match term {
                Term::Var(v) => match reserved.iter().position(|r| r == v) {
                    Some(i) => Source::Event(i),
                    None => slot_of(v).map_or(Source::Unbound, Source::Slot),
                },
                Term::Name(n) => Source::Name(cell(), n.clone()),
                _ => Source::Valuated,
            };
            Arg {
                source,
                term: term.clone(),
                what,
            }
        };
        let lower = |action: &EcaAction| {
            let (kind, method, receiver, value) = match action {
                EcaAction::AssertScalar {
                    receiver,
                    method,
                    value,
                } => (
                    ActionKind::AssertScalar,
                    method,
                    receiver,
                    Some((value, "action value")),
                ),
                EcaAction::AddSetMember {
                    receiver,
                    method,
                    member,
                } => (
                    ActionKind::AddSetMember,
                    method,
                    receiver,
                    Some((member, "action member")),
                ),
                EcaAction::RemoveSetMember {
                    receiver,
                    method,
                    member,
                } => (
                    ActionKind::RemoveSetMember,
                    method,
                    receiver,
                    Some((member, "action member")),
                ),
                EcaAction::RetractScalar { receiver, method } => (ActionKind::RetractScalar, method, receiver, None),
                EcaAction::AddIsA { object, class } => (ActionKind::AddIsA, class, object, None),
            };
            let what = if kind == ActionKind::AddIsA {
                "action object"
            } else {
                "action receiver"
            };
            Template {
                kind,
                name: (cell(), method.clone()),
                receiver: arg(receiver, what),
                value: value.map(|(term, what)| arg(term, what)),
            }
        };
        let actions = rule.actions.iter().map(lower).collect();
        Trigger {
            condition,
            reserved,
            seeded,
            actions,
            names_end: next.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlog_core::term::Filter;

    fn store() -> ActiveStore {
        let mut s = Structure::new();
        let employee = s.atom("employee");
        let mary = s.atom("mary");
        let john = s.atom("john");
        s.add_isa(mary, employee);
        s.add_isa(john, employee);
        ActiveStore::new(s)
    }

    #[test]
    fn a_scalar_assert_trigger_fires_and_acts() {
        let mut store = store();
        // on assert salary: if the receiver is an employee, stamp it as paid.
        store.add_rule(EcaRule::new(
            "mark-paid",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("paid"),
            }],
        ));
        let (salary, mary) = (store.oid("salary"), store.oid("mary"));
        let amount = store.int(1200);
        let stats = store.assert_scalar(salary, mary, amount).unwrap();
        assert_eq!(stats.firings, 1);
        assert_eq!(stats.mutations, 2, "the external assert plus the trigger's isa");
        assert_eq!(stats.max_depth_reached, 1);
        let paid = store.oid("paid");
        let mary = store.oid("mary");
        assert!(store.structure().in_class(mary, paid));
    }

    #[test]
    fn conditions_filter_which_events_act() {
        let mut store = store();
        let outsider = store.oid("outsider");
        store.add_rule(EcaRule::new(
            "mark-paid",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("paid"),
            }],
        ));
        let salary = store.oid("salary");
        let amount = store.int(900);
        let stats = store.assert_scalar(salary, outsider, amount).unwrap();
        assert_eq!(stats.firings, 0, "the outsider is not an employee");
        assert_eq!(stats.mutations, 1);
    }

    #[test]
    fn unchanged_mutations_raise_no_events() {
        let mut store = store();
        store.add_rule(EcaRule::new(
            "watch",
            Event::SetMemberAdded(Name::atom("vehicles")),
            vec![],
            vec![EcaAction::AddIsA {
                object: Term::var("Member"),
                class: Name::atom("seen"),
            }],
        ));
        let (vehicles, mary, a1) = (store.oid("vehicles"), store.oid("mary"), store.oid("a1"));
        assert_eq!(store.add_set_member(vehicles, mary, a1).unwrap().firings, 1);
        // adding the same member again changes nothing and fires nothing
        assert_eq!(store.add_set_member(vehicles, mary, a1).unwrap().firings, 0);
    }

    #[test]
    fn cascading_triggers_run_to_the_configured_depth() {
        let mut store = store();
        // Propagate a salary change to the bonus (10% of salary is modelled as
        // a second scalar assert, which itself triggers an audit mark).
        store.add_rule(EcaRule::new(
            "derive-bonus",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("bonusBase"),
                value: Term::var("Value"),
            }],
        ));
        store.add_rule(EcaRule::new(
            "audit",
            Event::ScalarAsserted(Name::atom("bonusBase")),
            vec![],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("audited"),
            }],
        ));
        let (salary, mary) = (store.oid("salary"), store.oid("mary"));
        let amount = store.int(2000);
        let stats = store.assert_scalar(salary, mary, amount).unwrap();
        assert_eq!(stats.firings, 2);
        assert_eq!(stats.mutations, 3);
        assert_eq!(stats.max_depth_reached, 2);
        let audited = store.oid("audited");
        let mary = store.oid("mary");
        assert!(store.structure().in_class(mary, audited));
    }

    #[test]
    fn retraction_events_see_the_old_value() {
        let mut store = store();
        store.add_rule(EcaRule::new(
            "archive",
            Event::ScalarRetracted(Name::atom("salary")),
            vec![],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("lastKnownSalary"),
                value: Term::var("Value"),
            }],
        ));
        let (salary, mary) = (store.oid("salary"), store.oid("mary"));
        let amount = store.int(1500);
        store.assert_scalar(salary, mary, amount).unwrap();
        let stats = store.retract_scalar(salary, mary).unwrap();
        assert_eq!(stats.firings, 1);
        let last = store.oid("lastKnownSalary");
        let mary = store.oid("mary");
        assert_eq!(store.structure().apply_scalar(last, mary, &[]), Some(amount));
        assert_eq!(store.structure().apply_scalar(salary, mary, &[]), None);
    }

    #[test]
    fn set_member_removal_triggers_fire() {
        let mut store = store();
        store.add_rule(EcaRule::new(
            "log-removal",
            Event::SetMemberRemoved(Name::atom("vehicles")),
            vec![],
            vec![EcaAction::AddSetMember {
                receiver: Term::var("Receiver"),
                method: Name::atom("formerVehicles"),
                member: Term::var("Member"),
            }],
        ));
        let (vehicles, mary, a1) = (store.oid("vehicles"), store.oid("mary"), store.oid("a1"));
        store.add_set_member(vehicles, mary, a1).unwrap();
        let stats = store.remove_set_member(vehicles, mary, a1).unwrap();
        assert_eq!(stats.firings, 1);
        let former = store.oid("formerVehicles");
        let (mary, a1) = (store.oid("mary"), store.oid("a1"));
        assert!(store.structure().apply_set(former, mary, &[]).unwrap().contains(&a1));
    }

    #[test]
    fn classification_events_bind_object_and_class() {
        let mut store = store();
        store.add_rule(EcaRule::new(
            "welcome",
            Event::ClassAdded(Name::atom("manager")),
            vec![Literal::pos(Term::var("Object").isa("employee"))],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Object"),
                method: Name::atom("status"),
                value: Term::name("promoted"),
            }],
        ));
        let (manager, mary) = (store.oid("manager"), store.oid("mary"));
        let stats = store.add_isa(mary, manager).unwrap();
        assert_eq!(stats.firings, 1);
        let status = store.oid("status");
        let promoted = store.oid("promoted");
        let mary = store.oid("mary");
        assert_eq!(store.structure().apply_scalar(status, mary, &[]), Some(promoted));
    }

    #[test]
    fn infinite_cascades_hit_the_depth_limit() {
        let mut store = ActiveStore::with_options(
            Structure::new(),
            ActiveOptions {
                max_cascade_depth: 8,
                ..ActiveOptions::default()
            },
        );
        // Each ping asserts a pong and vice versa, with ever-changing values
        // (the value is the receiver, swapped), so the cascade never quiesces.
        store.add_rule(EcaRule::new(
            "ping",
            Event::ScalarAsserted(Name::atom("ping")),
            vec![],
            vec![EcaAction::RetractScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("ping"),
            }],
        ));
        store.add_rule(EcaRule::new(
            "pong",
            Event::ScalarRetracted(Name::atom("ping")),
            vec![],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Receiver"),
                method: Name::atom("ping"),
                value: Term::var("Value"),
            }],
        ));
        let (ping, a, b) = (store.oid("ping"), store.oid("a"), store.oid("b"));
        let err = store.assert_scalar(ping, a, b).unwrap_err();
        assert!(matches!(err, ReactiveError::LimitExceeded(_)));
    }

    #[test]
    fn priorities_order_rule_firings_per_event() {
        let mut store = store();
        store.add_rule(
            EcaRule::new(
                "second",
                Event::ScalarAsserted(Name::atom("salary")),
                vec![Literal::pos(Term::var("Receiver").isa("vip"))],
                vec![EcaAction::AddIsA {
                    object: Term::var("Receiver"),
                    class: Name::atom("doubleChecked"),
                }],
            )
            .with_priority(1),
        );
        store.add_rule(
            EcaRule::new(
                "first",
                Event::ScalarAsserted(Name::atom("salary")),
                vec![],
                vec![EcaAction::AddIsA {
                    object: Term::var("Receiver"),
                    class: Name::atom("vip"),
                }],
            )
            .with_priority(10),
        );
        let (salary, mary) = (store.oid("salary"), store.oid("mary"));
        let amount = store.int(9000);
        let stats = store.assert_scalar(salary, mary, amount).unwrap();
        // "first" runs before "second", so "second"'s condition (vip) already
        // holds and both fire.
        assert_eq!(stats.firings, 2);
        let double_checked = store.oid("doubleChecked");
        let mary = store.oid("mary");
        assert!(store.structure().in_class(mary, double_checked));
    }

    /// A linear chain: asserting `c0` triggers `c1`, which triggers `c2`, …
    /// — each triggered mutation runs one level deeper.
    fn chain_store(levels: usize, options: ActiveOptions) -> ActiveStore {
        let mut store = ActiveStore::with_options(Structure::new(), options);
        for k in 0..levels {
            store.add_rule(EcaRule::new(
                format!("link-{k}"),
                Event::ScalarAsserted(Name::atom(format!("c{k}"))),
                vec![],
                vec![EcaAction::AssertScalar {
                    receiver: Term::var("Receiver"),
                    method: Name::atom(format!("c{}", k + 1)),
                    value: Term::var("Value"),
                }],
            ));
        }
        store
    }

    /// Pins the cascade-depth guard: `max_cascade_depth = N` permits exactly
    /// `N` levels of triggered mutations (the external mutation is depth 0),
    /// and the first mutation at depth `N + 1` errors.
    #[test]
    fn max_cascade_depth_permits_exactly_n_trigger_levels() {
        // 3 chain rules → deepest triggered mutation at depth 3.
        let options = |max_cascade_depth| ActiveOptions {
            max_cascade_depth,
            ..ActiveOptions::default()
        };
        let mut store = chain_store(3, options(3));
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        let stats = store.assert_scalar(c0, a, b).unwrap();
        assert_eq!(stats.max_depth_reached, 3, "N levels fit exactly");
        assert_eq!(stats.mutations, 4, "external + 3 triggered");

        let mut store = chain_store(3, options(2));
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        let err = store.assert_scalar(c0, a, b).unwrap_err();
        assert!(matches!(err, ReactiveError::LimitExceeded(_)));

        // N = 0: only the external mutation may mutate.  A rule still
        // fires on it, but its first action mutation errors...
        let mut store = chain_store(1, options(0));
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        assert!(store.assert_scalar(c0, a, b).is_err());
        // ...while an action-free rule fires without error.
        let mut store = ActiveStore::with_options(Structure::new(), options(0));
        store.add_rule(EcaRule::new(
            "observe",
            Event::ScalarAsserted(Name::atom("c0")),
            vec![],
            vec![],
        ));
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        let stats = store.assert_scalar(c0, a, b).unwrap();
        assert_eq!((stats.firings, stats.max_depth_reached), (1, 0));
    }

    /// Pins the documented partial-commit semantics: a cascade aborted by
    /// the depth limit keeps every mutation applied before the error.
    #[test]
    fn failed_cascades_keep_the_committed_prefix_by_default() {
        let mut store = chain_store(
            4,
            ActiveOptions {
                max_cascade_depth: 2,
                ..ActiveOptions::default()
            },
        );
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        assert!(store.assert_scalar(c0, a, b).is_err());
        // c0 (external), c1 and c2 (depths 1–2) committed; c3 was rejected.
        for (method, expect) in [("c0", true), ("c1", true), ("c2", true), ("c3", false)] {
            let m = store.oid(method);
            let a = store.oid("a");
            assert_eq!(
                store.structure().apply_scalar(m, a, &[]).is_some(),
                expect,
                "{method} committed state"
            );
        }
    }

    #[test]
    fn rollback_on_error_restores_the_pre_mutation_structure() {
        let mut store = chain_store(
            4,
            ActiveOptions {
                max_cascade_depth: 2,
                rollback_on_error: true,
                ..ActiveOptions::default()
            },
        );
        let (c0, a, b) = (store.oid("c0"), store.oid("a"), store.oid("b"));
        let before = store.structure().canonical_dump();
        assert!(store.assert_scalar(c0, a, b).is_err());
        assert_eq!(
            store.structure().canonical_dump(),
            before,
            "rollback must restore the snapshot"
        );
    }

    #[test]
    fn a_condition_with_several_solutions_fires_in_canonical_key_order() {
        let mut store = store();
        let (kids, pets, mary) = (store.oid("kids"), store.oid("pets"), store.oid("mary"));
        let (k1, k2, p1, p2) = (store.oid("k1"), store.oid("k2"), store.oid("p1"), store.oid("p2"));
        for (method, receiver, member) in [(kids, mary, k1), (kids, mary, k2), (pets, k1, p2), (pets, k2, p1)] {
            store.add_set_member(method, receiver, member).unwrap();
        }
        // Slots `Receiver`, `Z`, `A`; the key compares `A` first, so the
        // solution binding `A = p1` (and `Z = k2`) fires before the one
        // binding `A = p2`, though `k1` is the first kid.
        store.add_rule(EcaRule::new(
            "visit",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![
                Literal::pos(Term::var("Receiver").filter(Filter::set("kids", vec![Term::var("Z")]))),
                Literal::pos(Term::var("Z").filter(Filter::set("pets", vec![Term::var("A")]))),
            ],
            vec![EcaAction::AssertScalar {
                receiver: Term::var("Z"),
                method: Name::atom("visited"),
                value: Term::var("A"),
            }],
        ));
        let salary = store.oid("salary");
        let amount = store.int(10);
        let journal = store.structure().facts().mutation_len();
        let stats = store.assert_scalar(salary, mary, amount).unwrap();
        assert_eq!(stats.firings, 2);
        let visited = store.oid("visited");
        let order: Vec<Oid> = store
            .structure()
            .facts()
            .mutations_since(journal)
            .filter(|&(method, _)| method == visited)
            .map(|(_, receiver)| receiver)
            .collect();
        assert_eq!(order, [k2, k1]);
    }

    #[test]
    fn a_rolled_back_cascade_leaves_no_stale_resolution_behind() {
        let mut store = ActiveStore::with_options(
            Structure::new(),
            ActiveOptions {
                max_cascade_depth: 2,
                rollback_on_error: true,
                ..ActiveOptions::default()
            },
        );
        let assert = |receiver: &str, method: &str| EcaAction::AssertScalar {
            receiver: Term::var(receiver),
            method: Name::atom(method),
            value: Term::var("Value"),
        };
        let classify = |object: &str, class: &str| EcaAction::AddIsA {
            object: Term::var(object),
            class: Name::atom(class),
        };
        let on = |method: &str| Event::ScalarAsserted(Name::atom(method));
        let is = |class: &str| vec![Literal::pos(Term::var("Receiver").isa(class))];
        // `fresh`, `welcomed`, `c1`, `c2` and `c3` are interned by the
        // cascade, in that order; `c2` reaches depth 2, `c3` depth 3.
        store.add_rule(EcaRule::new(
            "r1",
            on("c0"),
            vec![],
            vec![classify("Receiver", "fresh"), assert("Receiver", "c1")],
        ));
        store.add_rule(EcaRule::new(
            "r3",
            Event::ClassAdded(Name::atom("fresh")),
            vec![],
            vec![classify("Object", "welcomed")],
        ));
        store.add_rule(EcaRule::new(
            "r2",
            on("c1"),
            is("fresh"),
            vec![assert("Receiver", "c2")],
        ));
        store.add_rule(EcaRule::new(
            "r2b",
            on("c2"),
            is("deep"),
            vec![assert("Receiver", "c3")],
        ));
        let (c0, a, b, v, deep) = (
            store.oid("c0"),
            store.oid("a"),
            store.oid("b"),
            store.oid("v"),
            store.oid("deep"),
        );
        store.add_isa(a, deep).unwrap();
        let before = store.structure().canonical_dump();
        let err = store.assert_scalar(c0, a, v).unwrap_err();
        assert!(matches!(err, ReactiveError::LimitExceeded(_)));
        assert_eq!(store.structure().canonical_dump(), before);
        assert_eq!(store.structure().lookup_name(&Name::atom("fresh")), None);
        // The objects the cascade's names had now denote other names.
        let taken: Vec<Oid> = ["x1", "x2", "x3", "x4", "x5"].map(|x| store.oid(x)).to_vec();

        let stats = store.assert_scalar(c0, b, v).unwrap();
        assert_eq!(
            (stats.firings, stats.mutations),
            (3, 5),
            "r1, r3 and r2 fire; r2b does not"
        );
        let (fresh, welcomed, c2) = (store.oid("fresh"), store.oid("welcomed"), store.oid("c2"));
        assert!(!taken.contains(&fresh));
        assert!(store.structure().in_class(b, fresh));
        assert!(store.structure().in_class(b, welcomed));
        assert_eq!(store.structure().apply_scalar(c2, b, &[]), Some(v));
        for x in taken {
            assert_eq!(store.structure().instances_of(x).count(), 0, "no member of {x:?}");
        }
    }

    #[test]
    fn a_rule_added_after_dispatch_matches_the_next_event() {
        let mut store = store();
        let mark = |class: &str| EcaAction::AddIsA {
            object: Term::var("Receiver"),
            class: Name::atom(class),
        };
        let on_salary = || Event::ScalarAsserted(Name::atom("salary"));
        store.add_rule(EcaRule::new("first", on_salary(), vec![], vec![mark("seen")]));
        let (salary, bonus, mary, john) = (
            store.oid("salary"),
            store.oid("bonus"),
            store.oid("mary"),
            store.oid("john"),
        );
        let amount = store.int(10);
        assert_eq!(store.assert_scalar(salary, mary, amount).unwrap().firings, 1);
        assert_eq!(store.assert_scalar(bonus, mary, amount).unwrap().firings, 0);

        store.add_rule(EcaRule::new("second", on_salary(), vec![], vec![mark("twice")]));
        store.add_rule(EcaRule::new(
            "bonus",
            Event::ScalarAsserted(Name::atom("bonus")),
            vec![],
            vec![mark("rewarded")],
        ));
        assert_eq!(store.assert_scalar(salary, john, amount).unwrap().firings, 2);
        assert_eq!(store.assert_scalar(bonus, john, amount).unwrap().firings, 1);
        let (twice, rewarded) = (store.oid("twice"), store.oid("rewarded"));
        assert!(store.structure().in_class(john, twice));
        assert!(store.structure().in_class(john, rewarded));
    }

    #[test]
    fn stats_merge_saturates_and_maxes_depth() {
        let mut total = ActiveStats {
            firings: usize::MAX - 1,
            mutations: 3,
            max_depth_reached: 2,
        };
        total.merge(&ActiveStats {
            firings: 10,
            mutations: 1,
            max_depth_reached: 5,
        });
        assert_eq!(total.firings, usize::MAX, "saturates instead of overflowing");
        assert_eq!(total.mutations, 4);
        assert_eq!(total.max_depth_reached, 5, "depth is a maximum, not a sum");
    }

    #[test]
    fn rules_and_events_display_readably() {
        let rule = EcaRule::new(
            "mark-paid",
            Event::ScalarAsserted(Name::atom("salary")),
            vec![Literal::pos(Term::var("Receiver").isa("employee"))],
            vec![EcaAction::AddIsA {
                object: Term::var("Receiver"),
                class: Name::atom("paid"),
            }],
        );
        let text = rule.to_string();
        assert!(text.contains("on assert salary ->"));
        assert!(text.contains("IF Receiver : employee"));
        assert!(text.contains("DO assert Receiver : paid"));
        assert_eq!(Event::SetMemberAdded(Name::atom("kids")).name(), &Name::atom("kids"));
        assert!(EcaAction::RetractScalar {
            receiver: Term::var("X"),
            method: Name::atom("age")
        }
        .to_string()
        .contains("retract X.age"));
    }
}
