(** Universal values stored in base objects of the simulated shared memory.

    The paper (Section 2) places no bound on the domain of base objects, so we
    use a small structural datatype closed under pairing: rich enough to
    encode version-locks, process identifiers, queue-node references, etc. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Pid of int  (** a process identifier, or [-1] encoding "no process" *)
  | Pair of t * t

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val nil_pid : t
(** [Pid (-1)], the conventional "no process" marker. *)

(** Preallocated constructors for allocation-free hot paths. Each is
    structurally equal to the corresponding fresh constructor ([equal],
    [compare] and [show] cannot tell them apart); they exist so the
    primitive branches of {!Memory.apply} build no boxed value per step. *)

val true_ : t
(** [Bool true], preallocated. *)

val false_ : t
(** [Bool false], preallocated. *)

val bool_ : bool -> t
(** [Bool b] without allocating. *)

val int_ : int -> t
(** [Int n]; drawn from a preallocated cache for [-1 <= n <= 255], fresh
    outside that range. *)

(** Partial projections. Each raises [Invalid_argument] naming the expected
    shape; simulated algorithms use them where the type of a cell is an
    invariant of the algorithm. *)

val to_int : t -> int
val to_bool : t -> bool
val to_pid : t -> int
val to_pair : t -> t * t
