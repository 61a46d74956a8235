(** Bounded exhaustive schedule exploration (stateless model checking),
    optionally with partial-order reduction.

    Enumerates interleavings of the spawned processes' steps, up to a total
    step bound, along a depth-first search of the schedule tree.
    Invariants are expressed as assertions inside the process programs (a
    violation crashes the process) plus an optional final-state predicate
    checked on every maximal path.

    The search needs, for every further branch of a node, a machine
    positioned at that node. How it gets one depends on the machine, which
    decides for itself ({!Machine.restorable}):

    - {e Restoring} (the [Steps] engine, every program installed with
      {!Machine.spawn_step}): the search saves the node once
      ({!Machine.save}) and restores it before each further branch. Step
      programs must then keep their host state in {!Proc.S} vars or
      machine cells, so a parked closure resumed from a restored node
      replays the same steps; the domain's {!Proc.Trail} is on for the
      duration of each search and emptied when it returns or unwinds.
    - {e Replaying} (any program in a fiber, e.g. the [Fibers] engine):
      fiber continuations are one-shot, so each further branch restarts a
      pooled machine in place ({!Machine.restart}) and re-executes the
      schedule prefix on it. Finished machines go back to a per-worker
      free list. This requires [mk] to confine all mutable state to the
      machine (programs must not capture external [ref]s — put such state
      in machine cells). If [mk] steps the machine before returning it,
      a restarted machine would diverge from a fresh one, so every replay
      calls [mk] instead.

    Both explore the same tree in the same leaf order, with the same
    witness and the same [paths], [cut], [pruned], [violations] and
    [fault_branches]; only [replays] and [steps] differ (see {!stats} and
    {!same_search}).

    Two search modes:

    - {!Naive} enumerates {e every} interleaving — the reference search.
    - {!Dpor} applies dynamic partial-order reduction: sleep sets plus
      dynamically computed persistent (backtrack) sets in the style of
      Flanagan–Godefroid. Two enabled steps are {e independent} iff they
      belong to different processes and either target distinct base objects
      or are both trivial primitives ({!Primitive.is_trivial}); pauses touch
      no base object and are independent of every other process's step.
      Only a representative of each Mazurkiewicz trace (equivalence class of
      interleavings under commuting independent steps) is fully explored;
      redundant interleavings are counted in [pruned] instead of [paths].
      Crash reachability and terminal states are preserved, so the
      violation {e verdict} matches the naive search; the violation {e
      count} may be lower (equivalent violating interleavings collapse).

    Exploration is budget-safe: when [max_paths] leaves have been admitted
    the search stops and [run] returns the partial tallies with [exhausted]
    set — any [first_violation] witness found before the budget tripped is
    preserved. The bound is strict (exactly [max_paths] leaves, never
    [max_paths + 1]).

    Intended for small configurations: keep programs to a few dozen total
    steps. Spinning programs make some paths infinite; those are cut at
    [max_steps] and counted in [cut] (the exploration is exhaustive {e
    within the bound}, as in bounded model checking).

    The search state is allocation-free: schedules are grow-only int
    arrays, sleep/backtrack/done sets are int bitmasks, and pending
    transitions are packed ints. The bitmask encoding caps the machine at
    62 processes ({!run} rejects larger machines with [Invalid_argument]);
    pair with {!Trace.Off} machines to make whole paths allocation-free
    apart from the per-sibling machine replays or the programs' own
    allocation. *)

type stats = {
  paths : int;  (** maximal paths fully explored *)
  cut : int;  (** paths truncated at the step bound *)
  pruned : int;
      (** redundant branches skipped by the reduction (0 in {!Naive} mode):
          sleep-blocked nodes plus backtrack candidates found asleep *)
  violations : int;  (** paths ending in a crash or failed final predicate *)
  first_violation : int list option;
      (** a witness schedule (pids in step order), if any *)
  exhausted : bool;
      (** the path budget tripped: the stats are a partial tally of an
          incomplete search (any witness found so far is still reported) *)
  replays : int;
      (** machines (re)initialized to re-execute a schedule prefix. A
          replaying search counts one per non-first sibling branch, plus
          one per frontier node and subtree task of a parallel or journaled
          run; pooled machines are restarted in place rather than rebuilt.
          A restoring search counts only the frontier ones (0 on a single
          domain without a journal): it restores its nodes instead *)
  steps : int;
      (** machine steps executed. A replaying search includes every
          re-executed replay prefix; a restoring search executes each tree
          edge once, plus the frontier replays *)
  replay_steps_saved : int;
      (** always 0: a replay re-executes every prefix step. The field
          stays only because the end-to-end benchmark reads it *)
  fault_branches : int;
      (** fault injections performed as branch points (0 when the crash and
          stall budgets are 0) *)
}

type mode =
  | Naive  (** enumerate every interleaving *)
  | Dpor  (** sleep-set + persistent-set partial-order reduction *)

val run :
  mk:(unit -> Machine.t) ->
  ?final:(Machine.t -> bool) ->
  ?max_steps:int ->
  ?max_paths:int ->
  ?mode:mode ->
  ?domains:int ->
  ?crashes:int ->
  ?stalls:int ->
  ?stall_steps:int ->
  ?checkpoint_file:string ->
  ?resume:bool ->
  ?progress:(stats -> unit) ->
  ?progress_every:int ->
  unit ->
  stats
(** [mk ()] must build a fresh machine with all processes spawned.
    [final] (default: fun _ -> true) is evaluated when no process is
    runnable. [max_steps] (default 60) bounds each path's length;
    [max_paths] (default 1_000_000) strictly bounds the number of admitted
    leaves (complete + cut paths) — on exhaustion partial stats are
    returned with [exhausted = true] instead of raising.

    [mode] (default {!Naive}) selects the search. [domains] (default 1)
    runs the search over a frontier of subtree tasks across that many OCaml
    domains: the schedule tree is expanded level by level (to a small depth
    cap) until it holds at least [4 * domains] subtree tasks, which the
    workers take from one shared counter. [mk] and [final] must
    then be safe to call concurrently from several domains (building
    disjoint machines, as the test harnesses do). The merged stats are
    deterministic — subtree tallies are combined in frontier order
    regardless of which worker ran which task — except that a budget trip
    is resolved by the cross-domain race for the last admitted leaves. In
    [Dpor] mode the per-task path counts can differ from the single-domain
    search (each frontier node explores all enabled branches — a sound
    superset of its computed persistent set); the verdict does not.

    [checkpoint_file] (absent by default) journals frontier progress to
    disk so a killed exploration can be resumed: a header fingerprinting
    the exploration, the (deterministic) task list, and one flushed line
    per finished task's tallies — crash-safe at any point, including
    [kill -9] mid-write. Setting it forces the frontier driver (with a
    task-count target independent of [domains]) even when [domains = 1].
    With [resume = true] (default [false]; requires [checkpoint_file]) the
    journal is loaded first: finished tasks' tallies are restored from disk
    (their leaves counted back into the [max_paths] budget) and only the
    remaining tasks are explored, so the final stats equal an uninterrupted
    run's. The journal must record the same exploration — same
    configuration and task list, which [mk] determinism guarantees —
    otherwise [Invalid_argument] is raised; an absent or truncated journal
    starts a fresh run (and rewrites the file).

    [crashes]/[stalls] (defaults 0) are per-path fault budgets: at every
    branching node with budget remaining, the search adds one crash branch
    per live pid ({!Machine.inject_crash}) and one stall branch per live
    not-already-stalled pid ({!Machine.inject_stall} for [stall_steps]
    slots, default 3), then explores the subtree with the budget reduced.
    Fault actions occupy a schedule position (they count against
    [max_steps]) but execute no memory event; in witness schedules they
    appear as values [>= 64] — [pid lor (1 lsl 6)] for a crash,
    [pid lor (2 lsl 6)] for a stall. Injections are counted in
    [fault_branches]. At budget 0 the search is bit-identical to the
    fault-free explorer. In {!Dpor} mode the reduction applies to step
    branches only: fault branches are always explored and their subtrees
    restart with an empty sleep set (naive mode remains the reference for
    fault coverage). Note that a crash truncates its path, so a [final]
    predicate written for complete executions will flag crash-truncated
    leaves; pair fault budgets with assertion-based (crash) invariants or a
    fault-aware [final].

    [progress] (with [progress_every], default 10_000) is invoked with a
    snapshot of the calling worker's tallies every [progress_every] leaves
    — from each domain concurrently when [domains > 1]. *)

val same_search : stats -> stats -> bool
(** The two stats describe the same search: equal [paths], [cut],
    [pruned], [violations], [first_violation], [fault_branches] and
    [exhausted]. [replays] and [steps] count how the search reached its
    nodes, which depends on the engine, and are not compared. *)

val reduction_ratio : naive:stats -> reduced:stats -> float
(** [naive.paths / reduced.paths] (guarding against division by zero): how
    many naive paths each explored representative stands for. *)

val pp_stats : Format.formatter -> stats -> unit
