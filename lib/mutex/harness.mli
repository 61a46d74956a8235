(** Mutual exclusion test-and-measure harness.

    Runs [nprocs] processes, each performing [rounds] Enter / critical
    section / Exit passages, under a deterministic schedule. The critical
    section increments a shared counter non-atomically (read, then write)
    and asserts single occupancy via an occupancy counter checked inside the
    section, so any mutual-exclusion violation crashes the run. Returns RMR
    counts for all three cost models, per-process step counts, and the
    verified final counter. *)

open Ptm_machine

type result = {
  nprocs : int;
  rounds : int;
  total_steps : int;
  rmr : (Rmr.model * Rmr.counts) list;
  machine : Machine.t;
}

exception Mutual_exclusion_violation of string

val run :
  (module Mutex_intf.S) ->
  nprocs:int ->
  rounds:int ->
  ?schedule:[ `Round_robin | `Random of int ] ->
  ?max_steps:int ->
  unit ->
  result
(** Raises {!Mutual_exclusion_violation} if two processes ever occupy the
    critical section simultaneously, [Sched.Out_of_steps] on starvation
    (deadlock-freedom failure within the step budget), or the underlying
    counter mismatch as a violation too. *)

val rmr_of : result -> Rmr.model -> int

val explored :
  (module Mutex_intf.S) -> ?trace:Trace.sink -> nprocs:int -> unit -> Machine.t
(** The schedule explorer's lock fixture (trace sink default {!Trace.Full}):
    [nprocs] processes each enter the lock once, increment the cell named
    ["c"] non-atomically (read, then write) and leave. A process that finds
    another in the critical section raises {!Mutual_exclusion_violation},
    which crashes it, so the explorer counts the path as a violation. The
    occupancy count lives in a machine cell. *)
