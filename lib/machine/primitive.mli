(** Read-modify-write primitives on base objects (paper, Section 2).

    A primitive is a pair of functions [<g, h>]: [g] updates the state of the
    base object, [h] computes the response. A primitive is {e trivial} if it
    never changes the object, {e nontrivial} otherwise, and {e conditional} if
    [g] sometimes leaves the state unchanged and sometimes does not (e.g. CAS
    and LL/SC, the paper's examples). {!Memory.apply} is the single
    definition of each primitive's [<g, h>]. *)

type t =
  | Read
  | Write of Value.t
  | Cas of { expected : Value.t; desired : Value.t }
      (** succeeds (returns [Bool true], installs [desired]) iff the current
          value equals [expected]. *)
  | Tas  (** test-and-set on a [Bool] cell: sets [true], returns old value. *)
  | Faa of int  (** fetch-and-add on an [Int] cell: adds, returns old value. *)
  | Fas of Value.t  (** fetch-and-store (swap): installs, returns old value. *)
  | Ll  (** load-linked: reads and registers a link for the caller. *)
  | Sc of Value.t
      (** store-conditional: succeeds iff the caller's link is still valid. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

val is_trivial : t -> bool
(** [Read] and [Ll]: never change the object. *)

val is_nontrivial : t -> bool

val is_conditional : t -> bool
(** [Cas], [Sc] and [Tas] (for [Tas], [g(true) = true] while
    [g(false) = true <> false], satisfying the paper's definition). *)

val is_rwc : t -> bool
(** Belongs to the read/write/conditional class of Theorem 9 (everything but
    [Faa] and [Fas]). *)
