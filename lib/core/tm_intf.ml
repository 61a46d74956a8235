(** The transactional memory interface (paper, Section 2).

    A TM supports transactions over [nobjs] t-objects, indexed [0 ..
    nobjs-1], holding integer values (initially {!init_value}). Every
    t-operation either returns a value or aborts the transaction; after an
    abort the transaction handle must not be used again.

    Implementations run {e inside} simulated processes: all shared-memory
    interaction must go through the program signature {!Ptm_machine.Proc.S}
    so that steps are counted and traced. Creating a transaction handle
    ({!Generic.fresh}) must
    not access shared memory — the paper has no "begin" operation, so any
    start-of-transaction work (e.g. reading a global clock) must be deferred
    to the first t-operation. *)

let init_value = 0
(** Initial value of every t-object. *)

type abort = [ `Abort ]

(** Properties an implementation claims; checkers validate them on
    executions. [strongly_progressive] implies [progressive], and
    [invisible_reads] (the strong form) implies [weak_invisible_reads] (the
    paper's premise: only transactions running without concurrency must keep
    their t-reads free of nontrivial events — a lock-free TM whose reads
    help rival commits is weakly but not strongly invisible). *)
type props = {
  opaque : bool;
  weak_dap : bool;
  invisible_reads : bool;
      (** strong invisibility: read-only transactions never apply nontrivial
          events in any execution *)
  weak_invisible_reads : bool;
  progressive : bool;
  strongly_progressive : bool;
}

(** A TM written once against the program signature {!Ptm_machine.Proc.S}:
    the t-operations are programs of ['a m]. Each TM is a functor over the
    program signature; applying it to {!Ptm_machine.Proc.Direct} gives the
    direct-style {!S}, to {!Ptm_machine.Proc.Step} the step-form {!S_step},
    and the two run the identical event sequence. *)
module type Generic = sig
  type 'a m
  (** The program type of the instance ({!Ptm_machine.Proc.S.t}). *)

  val name : string

  val props : props

  type t
  (** Shared TM state: base objects allocated at creation. *)

  val create : Ptm_machine.Machine.t -> nobjs:int -> t

  type tx
  (** Per-transaction descriptor, local to one process. *)

  val fresh : t -> pid:int -> id:int -> tx
  (** Allocate a transaction handle. Must not access shared memory. *)

  val read : t -> tx -> int -> (int, abort) result m
  val write : t -> tx -> int -> int -> (unit, abort) result m

  val try_commit : t -> tx -> (unit, abort) result m
  (** On [Error `Abort] the implementation has already released any base
      objects it holds; same for aborting reads and writes. *)
end

(** The direct-style instance: t-operations are plain calls, run inside a
    process of a [Fibers] machine. *)
module type S = Generic with type 'a m := 'a

type tm = (module S)

(** The step-form instance: t-operations are step-machine programs
    ({!Ptm_machine.Proc.Step.t}), run by a [Steps] machine. *)
module type S_step = Generic with type 'a m := 'a Ptm_machine.Proc.Step.t

(** A TM in both forms: the direct instance with its step instance as
    [Stepwise]. Every registry TM has this shape; {!Runner.spawn} picks the
    instance that matches the machine's engine. *)
module type Both = sig
  include S

  module Stepwise : S_step
end
