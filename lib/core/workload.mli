(** Transactional workload descriptions and seeded random generation. *)

type op_spec = R of int | W of int * int

type tx_spec = op_spec list
(** The t-operations of one transaction, in program order; the runner appends
    the [tryC]. *)

type t = {
  nobjs : int;
  procs : tx_spec list array;  (** one transaction list per process *)
}

val pp : Format.formatter -> t -> unit

type dist =
  | Uniform
  | Zipf of float
      (** Zipfian object selection with parameter [theta >= 0]: object [k]
          (0-based) has weight [1/(k+1)^theta], so low-numbered objects are
          hot. [Zipf 0.0] is uniform; the classical skewed STM mixes use
          theta in [0.5, 1.2]. *)

(** Malformed workload parameters. A hotspot [(h, p)] must satisfy
    [1 <= h < nobjs] and [0 <= p <= 1] (an [h >= nobjs] "hotspot" covers
    everything and almost certainly means a configuration slip); a Zipf
    theta must be finite and non-negative. *)
type spec_error =
  | Bad_hotspot of { h : int; p : float; nobjs : int }
  | Bad_zipf of { theta : float }

exception Invalid_spec of spec_error

val spec_error_to_string : spec_error -> string

(** Precomputed object-selection sampler: validates the mix parameters once
    ({!Invalid_spec} on nonsense), builds the Zipf CDF once, and then draws
    deterministically from a caller-supplied RNG state — shared by
    {!random} and the load engine's per-client generators. *)
module Sampler : sig
  type t

  val check : ?hotspot:int * float -> dist:dist -> nobjs:int -> unit -> unit
  (** Validate a spec without building anything.
      @raise Invalid_spec on an out-of-range hotspot or Zipf theta. *)

  val make : ?hotspot:int * float -> dist:dist -> nobjs:int -> unit -> t
  (** {!check}, then build the sampler; a Zipf spec's cumulative weights
      are computed here.
      @raise Invalid_spec as {!check} does. *)

  val draw : t -> Random.State.t -> int
  (** One object index. With a hotspot [(h, p)]: probability [p] of a
      uniform draw from the first [h] objects, otherwise a draw from the
      base distribution. Consumes one RNG float for the hotspot decision
      (iff a hotspot is set) plus one draw for the object. *)

  val zipf_cdf : theta:float -> nobjs:int -> float array
  (** The normalized cumulative Zipf weights (exposed for tests). *)
end

val random :
  seed:int ->
  nprocs:int ->
  nobjs:int ->
  txs_per_proc:int ->
  ops_per_tx:int ->
  ?write_ratio:float ->
  ?unique_writes:bool ->
  ?hotspot:int * float ->
  ?dist:dist ->
  unit ->
  t
(** Seeded random workload. [write_ratio] (default 0.5) is the probability
    that an operation is a write. With [unique_writes] (default true) every
    written value is globally unique — making serialization witnesses easier
    to diagnose. Written values start at 1 (0 is the initial value of every
    t-object). [hotspot = (h, p)] directs a fraction [p] of operations at
    the first [h] t-objects — the skewed-access pattern of the classical STM
    benchmarks; [dist] (default {!Uniform}) selects the base distribution
    for the remaining draws. Identical seeds produce identical workloads,
    across both distributions.
    @raise Invalid_argument naming the field when [nobjs < 1] or a count
    ([nprocs], [txs_per_proc], [ops_per_tx]) is negative.
    @raise Invalid_spec on an out-of-range hotspot or Zipf theta. *)

val bank : nprocs:int -> naccounts:int -> transfers_per_proc:int -> seed:int -> t
(** A transfer workload: each transaction reads two accounts and rewrites
    them, moving one unit. The total balance is an invariant checked by
    examples and tests.
    @raise Invalid_argument naming the field when [naccounts < 2] or
    [nprocs] or [transfers_per_proc] is negative. *)

val read_only_scaling : readers:int -> nobjs:int -> t
(** Each process reads every object once in a single transaction — the
    workload of the Theorem 3 experiments' baseline.
    @raise Invalid_argument naming the field when a count is negative. *)
