(** Drive TM implementations over workloads inside the simulated machine,
    recording the TM history as trace notes.

    {!Make} and {!Make_step} wrap a TM implementation with history
    instrumentation, one body over the program signature: every
    t-operation is bracketed by {!History.Tx_inv}/{!History.Tx_res} notes
    (zero-cost in the step model), aborted transactions stop issuing
    operations (well-formedness), and transaction ids are globally unique.
    {!spawn} installs a {!Workload.t} on a machine in the machine's program
    form; {!run} executes a whole workload under a schedule and returns the
    recorded history. *)

open Ptm_machine

(** A TM instrumented with history notes, over the program type ['a m] of
    one instance of the program signature {!Ptm_machine.Proc.S}. *)
module type Instrumented = sig
  type 'a m
  type state
  type ctx

  val init : Machine.t -> nobjs:int -> ctx
  val tm_state : ctx -> state

  type tx

  val tx_id : tx -> int

  val begin_tx : ctx -> pid:int -> tx m
  (** Allocate a fresh instrumented transaction (no events, no note — the
      paper's model has no begin event; ids live in a peeked/poked machine
      cell, so explorer re-runs replay them). *)

  val read : ctx -> tx -> int -> (int, Tm_intf.abort) result m
  val write : ctx -> tx -> int -> int -> (unit, Tm_intf.abort) result m
  val commit : ctx -> tx -> (unit, Tm_intf.abort) result m

  val atomically :
    ctx -> pid:int -> retries:int -> (tx -> ('a, Tm_intf.abort) result m) ->
    ('a, Tm_intf.abort) result m
  (** Run the body as a transaction, committing on success. On abort, retries
      up to [retries] times as fresh transactions. The body must access
      t-objects only through {!read} and {!write} on the given handle. *)

  val run_ops : ctx -> tx -> Workload.tx_spec -> (unit, Tm_intf.abort) result m
  (** Issue a workload transaction's operations on [tx] in order, stopping
      at the first abort. Does not commit. *)
end

(** The one instrumentation body, applied to the direct instance: every
    t-operation is a plain call, run inside a fiber-backed process. *)
module Make (T : Tm_intf.S) :
  Instrumented with type 'a m := 'a and type state = T.t

(** The same body applied to the step instance: identical note sequences,
    fault-injected aborts and id allocation, with every t-operation a
    step-machine program, run on a [Steps] machine via
    {!Machine.spawn_step}. *)
module Make_step (T : Tm_intf.S_step) :
  Instrumented with type 'a m := 'a Proc.Step.t and type state = T.t

val spawn :
  Machine.t -> (module Tm_intf.Both) -> retries:int -> Workload.t -> unit
(** [spawn m (module T) ~retries w] creates [T] over [w]'s objects on [m]
    and spawns one process per entry of [w.procs]: each runs its
    transactions in order, each through {!Instrumented.atomically} with
    [retries], and moves on after a commit or the last abort. The form
    follows the machine: [T] (via {!Make}) on a [Fibers] machine,
    [T.Stepwise] (via {!Make_step}) on a [Steps] machine, with identical
    events. Faults and trace observers installed on [m] before the call
    see the whole run. *)

type retry_policy =
  | Immediate  (** re-issue an aborted attempt on the next scheduled slot *)
  | Backoff of { base : int; factor : int; cap : int }
      (** before retry [k] (counting from 0), wait
          [min cap (d + pid * d / nprocs)] machine steps, where
          [d = min cap (base * factor^k)]: each step is a trivial read of a
          per-process scratch cell, so delays occupy schedule positions
          and rivals run meanwhile, and the [pid] term keeps processes
          that aborted in the same round from retrying in lockstep *)

val back_off :
  retry_policy -> nprocs:int -> pid:int -> Memory.addr -> int -> int
(** [back_off policy ~nprocs ~pid cell k] performs the wait before retry
    [k] of process [pid], one read of [cell] per tick, and returns the
    number of ticks ([0] under {!Immediate}). Direct form: call it from
    inside a spawned process. {!run} waits with it under its [policy];
    {!Load} always waits with [Backoff { base = 1; factor = 2; cap = 1024 }].
    {!Instrumented.atomically}, which the explorer runs, never waits. *)

(** Livelock detector: flags abort–retry cycles making no commit progress.
    Feed it every attempt outcome; it trips once [window] consecutive abort
    records arrive with no interleaved commit, latching the set of processes
    that were abort-looping at that moment. Plain mutable state {e outside}
    the machine — for single live runs ({!run}), not for explorer [mk]
    closures. *)
module Livelock : sig
  type t

  val create : ?window:int -> nprocs:int -> unit -> t
  (** [window] (default 64) is how many consecutive aborts — across all
      processes, with no commit in between — count as livelock. *)

  val record_abort : t -> int -> unit
  (** [record_abort d pid]: one transaction attempt of [pid] aborted. *)

  val record_commit : t -> int -> unit
  (** [record_commit d pid]: [pid] committed — resets the global
      no-progress counter and [pid]'s abort streak. *)

  val tripped : t -> bool
  (** Latched: once tripped, stays tripped. *)

  val starved : t -> int list
  (** If tripped, the pids with a live abort streak at trip time (sorted);
      otherwise the pids with a live abort streak now. *)
end

type outcome = {
  machine : Machine.t;
  history : History.t;
  commits : int;
  aborts : int;  (** number of aborted transaction attempts *)
  starved : int list;
      (** pids named by the livelock detector, [[]] unless it tripped (or
          was not requested) *)
  out_of_steps : bool;
      (** the scheduler hit its step budget with runnable processes left —
          e.g. processes spinning on a base object held by a crashed peer *)
  verdict : Opacity_stream.verdict option;
      (** the online checker's verdict, [None] unless [monitor] was set *)
  monitor_stats : Opacity_stream.stats option;
      (** the online checker's resource use, [None] unless [monitor] was
          set *)
}

type schedule = Round_robin | Random_sched of int  (** seeded *)

val validate_policy : retry_policy -> unit
(** Raises [Invalid_argument] unless a [Backoff] has [base >= 0],
    [factor >= 1] and [cap >= base]. {!run} calls it before anything
    else. *)

val run :
  (module Tm_intf.S) ->
  ?retries:int ->
  ?policy:retry_policy ->
  ?faults:Fault.spec list ->
  ?livelock_window:int ->
  ?max_steps:int ->
  ?monitor:bool ->
  schedule:schedule ->
  Workload.t ->
  outcome
(** Run the workload to quiescence. [retries] (default 0) is how many times an
    aborted transaction attempt is re-issued (each retry is a fresh
    transaction); [policy] (default {!Immediate}) is how long a process
    waits before each retry ({!back_off}). Crashes inside TM code are
    re-raised.

    [faults] (default []) is installed via {!Machine.set_faults}:
    crash/stall specs fire by scheduled slot; [Fault.Abort] specs abort the
    pid's [at]-th t-operation at the runner boundary (the TM never sees the
    operation; the history records {!History.Tx_injected_abort}). An abort
    injected mid-transaction abandons the TM handle exactly like a crash of
    that transaction — with eager lock-based TMs, target the first operation
    of a transaction unless leaking held base objects is the point.

    [livelock_window] (absent by default) arms a {!Livelock} detector over
    the run: when it trips, in-flight attempts stop retrying, remaining
    transactions are skipped, and the starved pids are reported in the
    outcome — turning a livelock into a terminating run.

    Running out of scheduler budget is reported as [out_of_steps = true]
    instead of raising {!Sched.Out_of_steps} (expected under crash faults
    when survivors spin on objects the crashed process holds).

    [monitor] (default [false]) attaches a streaming opacity checker
    ({!Opacity_stream}) to the machine trace's note observer: the whole
    run — faults, retries, back-off included — is checked online, under any
    trace sink, and its verdict and stats land in the outcome's [verdict]
    and [monitor_stats] fields. On a violation-free run the outcome is
    otherwise identical to an unmonitored run (the monitor only observes
    trace notes). *)
