(** Remote memory reference (RMR) accounting (paper, Section 5).

    RMRs are counted by one cache simulator implementing the paper's three
    cost models verbatim, fed either online ({!Stream}) or offline, by
    replaying a recorded trace ({!count}, {!iter}):

    - {e write-through CC}: a read is local iff the reader holds a cached copy
      not invalidated since its previous read; a write always incurs an RMR
      and invalidates all cached copies.
    - {e write-back CC}: a read is local iff the reader holds the line in
      shared or exclusive mode; otherwise it incurs an RMR, demotes an
      exclusive holder, and caches in shared mode. A write is local iff the
      writer holds the line exclusive; otherwise it incurs an RMR,
      invalidates all copies, and caches in exclusive mode.
    - {e DSM}: every register is local to exactly one process (its allocation
      [owner]); any access by another process is an RMR. Cells allocated
      without an owner are remote to everybody.

    A trivial primitive application ([Read], [Ll]) is treated as a read
    access; any nontrivial application (including a failed CAS, which still
    requires ownership of the line) is treated as a write access.

    The simulator keeps its line state in an array indexed by address,
    sized from {!Memory.size} when it is created. A cell allocated later
    (OSTM allocates descriptors during a run) grows the array when it is
    first touched, so a stream may be created before the memory is complete.
    Every entry point rejects an address outside [[0, Memory.size)] under
    every model, with [Invalid_argument] naming the address and the
    range. *)

type model = Cc_write_through | Cc_write_back | Dsm

val model_name : model -> string
val all_models : model list

type counts = { per_pid : int array; total : int }

val count : model -> nprocs:int -> Memory.t -> Trace.t -> counts
(** Replay the trace's memory events, in place, and return RMR counts per
    process and in total. The memory supplies DSM owners and the address
    range.
    @raise Invalid_argument as {!Stream.create} and {!Stream.feed} do: on
    [nprocs < 1], an event whose pid is outside [[0, nprocs)], or an
    address outside the memory. *)

val iter : model -> Memory.t -> Trace.t -> (Trace.mem_event -> unit) -> unit
(** Replay the trace and invoke the callback once per event that incurs an
    RMR — the building block for attributed accounting (e.g. splitting the
    Algorithm 1 RMRs into TM steps versus hand-off overhead).
    @raise Invalid_argument on an address outside the memory. *)

(** Online accounting for runs too large to retain a trace (the load
    engine's million-transaction sweeps run under the {!Trace.Off} sink):
    the simulator fed one event at a time, from the (pid, addr, triviality)
    triple {!Machine.packed_pend} exposes before each step. {!count} is a
    stream fed a recorded trace's events in order. *)
module Stream : sig
  type t

  val create : model -> nprocs:int -> Memory.t -> t
  (** The memory supplies DSM owners and the address range; cells allocated
      after [create] are accounted too.
      @raise Invalid_argument if [nprocs < 1]. *)

  val feed : t -> pid:int -> addr:int -> trivial:bool -> unit
  (** Account one memory event: [trivial] per {!Primitive.is_trivial}
      (reads/LLs), nontrivial applications are write accesses.
      @raise Invalid_argument if [pid] is outside [[0, nprocs)] or [addr]
      outside the memory, before any state changes. *)

  val counts : t -> counts
end
