(** The simulated asynchronous shared-memory machine (paper, Section 2).

    A machine bundles a shared {!Memory}, an execution {!Trace}, and a table
    of processes. Processes are spawned with a program in the machine's form
    (a direct-style closure using the {!Proc} operations, or a
    {!Proc.Step} program) and advanced one step at a time by a scheduler;
    every step applies exactly one primitive to one base object and records
    one event. The machine is fully deterministic: an execution is a function
    of the programs and the schedule. *)

type t

type pid = int

(** The engine is the form of the machine's programs. A program text
    written once over {!Proc.S} runs its direct instance on [Fibers] and its
    step instance on [Steps], with the same events, statuses, step counts
    and fault semantics on both. *)
type engine =
  | Fibers
      (** direct-style closures ({!spawn}) as effect-handler coroutines,
          one fiber switch per step; continuations are one-shot, so a
          search replays schedule prefixes on a restarted machine *)
  | Steps
      (** step-machine programs ({!spawn_step}) driven by closure
          application: no fiber is created and no stack switch happens per
          step, and a search restores saved nodes ({!restorable}) *)

exception
  Invariant of { pid : int; slot : int; seq : int; what : string }
        (** A machine-internal invariant broke: [pid] is the process being
            stepped, [slot] its consumed-slot count ({!scheds_of}), [seq]
            the global schedule index ({!Trace.length}) at the failure. This
            is raised (not asserted) so a long sweep's partial results
            survive and the failing position is diagnosable; it indicates a
            corrupted schedule or fault plan, or a program finding a machine
            guarantee broken (OSTM's descriptor cells not consecutive), not
            a user program bug. *)

type status =
  | Idle  (** no program spawned *)
  | Runnable
  | Terminated
  | Halted  (** crash-stopped by an injected fault; never runs again *)
  | Crashed of exn  (** the program raised; surfaced by {!check_crashes} *)

type step_result = [ `Progress | `Paused | `Done ]

val create : ?trace:Trace.sink -> ?engine:engine -> nprocs:int -> unit -> t
(** [trace] selects the trace sink (default {!Trace.Full}). With
    {!Trace.Off} the machine's behaviour is identical — same memory states,
    responses and step counts — but no trace entry is allocated per step;
    offline trace analyses are then unavailable.

    [engine] (default {!Fibers}) declares the form of the programs the
    machine runs: {!spawn} on [Fibers], {!spawn_step} on [Steps]. *)

val nprocs : t -> int
val engine : t -> engine
val memory : t -> Memory.t
val trace : t -> Trace.t

val alloc :
  t -> ?owner:pid -> ?index:int -> name:string -> Value.t -> Memory.addr
(** Allocate a base object (set-up, not a step); see {!Memory.alloc}. *)

val alloc_array : t -> name:string -> int -> Value.t -> Memory.addr array
(** [alloc_array t ~name n v] allocates one cell per index [0 .. n-1], each
    holding [v] and named [name[i]] ({!Memory.alloc_array}). *)

val spawn : t -> pid -> (unit -> unit) -> unit
(** Install and start [pid]'s direct-style program in a fiber; runs it up
    to its first effect. Raises [Invalid_argument] if [pid] already has a
    program or the machine's engine is {!Steps}. *)

val spawn_step : t -> pid -> unit Proc.Step.t -> unit
(** Install and start [pid]'s step-machine program; runs it up to its
    first effect. The program value is retained for {!restart}, which
    re-runs it from scratch; its construction must defer side effects per
    the {!Proc.Step.suspend} discipline. Raises [Invalid_argument] if [pid]
    already has a program or the machine's engine is {!Fibers}. *)

val reset : t -> unit
(** Return the machine to its post-allocation initial state in place: every
    cell back to its [alloc]-time value, the trace cleared (seq counter
    included), every process back to [Idle] with a zero step count and its
    dynamic fault state (halt, stall, plan cursor) cleared — installed fault
    plans themselves survive, like programs, so a pooled {!restart} replays
    the same faults. Programs
    remain installed but not started; {!restart} re-runs them, or {!spawn}
    may install replacements. Memory is truncated back to its size at the
    first {!spawn}, so cells allocated by program code (e.g. per-transaction
    descriptors) are forgotten and re-allocated at the same addresses when
    the programs re-run; set-up code must therefore allocate all shared
    cells {e before} the first [spawn]. The memory array, trace buffer and
    process table are all reused. *)

val restart : t -> unit
(** {!reset}, then re-start every installed program, in the order the
    programs were first spawned (spawn order matters: programs may emit
    notes before their first event). After [restart] the machine is
    observationally identical to a freshly-built one running the same
    set-up — {e provided} the programs do not capture mutable state outside
    the machine (captured [ref]s or closures over external state survive
    the reset and leak between runs; put such state in machine cells). *)

(** {1 Saved nodes}

    The schedule explorer branches from one node several times. On a
    restorable machine it saves the node once and restores it before each
    further branch, instead of replaying the schedule prefix on a restarted
    machine. *)

type saved
(** A reusable buffer holding one node: each process's parked outcome,
    step and slot counters and fault state, {!last_resp}, the memory (values, load-links and size), the trace
    position and the mark of the domain's {!Proc.Trail}. *)

val saved_make : t -> saved
(** A buffer sized for [t]'s processes. *)

val restorable : t -> bool
(** The machine's engine is {!Steps}. Fiber continuations are one-shot, so
    only a [Steps] machine can be restored. *)

val save : t -> saved -> unit
(** Overwrite the buffer with [t]'s current node. Allocates nothing once
    the buffer's memory snapshot has grown to the store's size. Raises
    [Invalid_argument] if [t] is not {!restorable} or the buffer was made
    for a machine with another process count. *)

val restore : t -> saved -> unit
(** Put [t] back at a node saved from it, and on this path: every later
    process state, counter and memory value is replaced, cells allocated
    since the save are forgotten (and re-allocated at the same addresses
    when the programs run again), the trace is rewound ({!Trace.rewind})
    and the trail is undone to the node's mark. Programs then resume from
    their saved parked closures, which replays the same steps only if
    they keep their host state in vars ({!Proc.S}) or machine cells — and
    the vars are rewound only while the trail is on. *)

val forget : saved -> unit
(** Drop the buffer's references to the saved parked outcomes, so a node
    that will not be restored again keeps no program closures alive until
    the buffer is next saved into. Restoring a forgotten buffer leaves every
    process idle. *)

val status : t -> pid -> status

val set_faults : t -> Fault.spec list -> unit
(** Install a fault plan: each {!Fault.Crash}/[Fault.Stall] spec fires when
    its pid consumes its [at]-th scheduled slot (see {!scheds_of});
    {!Fault.Abort} specs are stored for {!abort_due} and ignored by machine
    stepping. Replaces any previously installed plan. The plan survives
    {!reset}/{!restart} (only its dynamic state is cleared), so pooled
    machines replay faults identically. Raises [Invalid_argument] on an
    out-of-range pid, a negative index, a stall shorter than one slot, or
    two crash/stall specs of one pid sharing a slot. *)

val inject_crash : t -> pid -> unit
(** Crash-stop [pid] now: it is {!Halted} from here on — never scheduled
    again, holding whatever it holds. Records a {!Fault.Crashed} trace note.
    The schedule explorer uses this to realize enumerated crash branches.
    Raises [Invalid_argument] if [pid] is not runnable. *)

val inject_stall : t -> pid -> steps:int -> unit
(** Park [pid] for its next [steps] scheduled slots: each is consumed as a
    no-op (like a pause, [`Paused]), after which it resumes. The process
    stays runnable throughout. Stacks with an already-active stall. Records
    a {!Fault.Stalled} trace note. Raises [Invalid_argument] if [steps < 1]
    or [pid] is not runnable. *)

val abort_due : t -> pid -> op_index:int -> bool
(** Whether the installed plan holds [Fault.Abort] for [pid] at t-operation
    index [op_index]. Consulted by the runner layer before each
    t-operation; the machine itself never fires these. *)

val halted : t -> pid -> bool
val stalled : t -> pid -> bool
(** [pid] is runnable but inside an active stall window. *)

val is_runnable : t -> pid -> bool
(** [status t pid = Runnable], without allocating (explorer hot path).
    Halted processes are not runnable. Unlike {!status}, out-of-range pids
    are a bounds error, not [Invalid_argument]. *)

val any_crashed : t -> bool
(** Some spawned process crashed (allocation-free probe). *)

val is_failed : t -> pid -> bool
(** [status t pid = Crashed _], without allocating and without the bounds
    check — the per-pid probe behind the explorer's incremental crash
    tracking (only the stepped process can newly crash). Out-of-range pids
    are undefined behaviour. *)

val poised : t -> pid -> Proc.request option
(** The event [pid] is poised to apply, if any — the paper's "enabled
    event". *)

val step : t -> pid -> step_result
(** Advance [pid]: apply its pending primitive (one event) and run it to its
    next effect. Notes are drained transparently on either side of the event
    and cost nothing. [`Paused] means the program hit {!Proc.pause} before
    applying an event; the pause is consumed. Stepping a terminated, idle or
    halted process returns [`Done]. A program that raises is marked
    [Crashed] and returns [`Done].

    The fault layer gates every step: if the scheduled slot triggers a due
    crash/stall spec or falls inside an active stall window, the slot is
    consumed as a no-op ([`Paused]) without touching the program's
    continuation or any base object (a crash trigger additionally halts the
    process). Fault behaviour is therefore a pure function of the
    schedule. *)

val unsafe_step : t -> pid -> step_result
(** {!step} without the pid bounds check — for the schedule explorer, whose
    pids come from validated schedules. Out-of-range pids are undefined
    behaviour. *)

val packed_pend : t -> pid -> int
(** The event [pid] is poised to apply, packed allocation-free:
    [(addr lsl 1) lor trivial] for a memory request ([trivial] per
    {!Primitive.is_trivial}), [-1] for a pause, [-2] when not runnable.
    A slot whose next scheduled turn the fault layer will consume (stall
    skip or due crash/stall trigger) reports [-1]: it will touch no base
    object, so it commutes like a pause. *)

val last_resp : t -> Value.t
(** Response of the most recent memory step ({!step} or {!unsafe_step})
    on this machine. No library code reads it; it stays, with {!feed}, for
    the end-to-end benchmark's calibration, which logs a schedule's
    responses and feeds them back. *)

val feed : t -> pid -> Value.t -> changed:bool -> unit
(** No library code calls this; see {!last_resp}.

    Replay one logged step without touching memory: resume [pid]'s parked
    continuation with the recorded response (for a pause, with [()]),
    recording the trace entry / seq tick and step count exactly as {!step}
    would have. Fault slots are gated identically to {!step} — a fed
    position that was originally consumed by a stall skip or a plan trigger
    consumes it again, notes included, ignoring the supplied response. The
    caller is responsible for the response being the one
    this schedule position originally produced, and for restoring memory
    (e.g. {!Memory.restore_from}) before real steps resume.
    Raises [Invalid_argument] if [pid] is not runnable or halted. *)

val steps_of : t -> pid -> int
(** Number of events (primitive applications) performed by [pid] so far. *)

val scheds_of : t -> pid -> int
(** Number of scheduled slots [pid] has consumed: memory events, pauses,
    stall skips and fault triggers all count one. Fault-plan [at] indices
    refer to this counter. *)

val all_done : t -> bool
(** All spawned processes have terminated, crashed or halted. *)

val check_crashes : t -> unit
(** Re-raise the first recorded crash, if any. *)
