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
    requires ownership of the line) is treated as a write access. *)

type model = Cc_write_through | Cc_write_back | Dsm

val model_name : model -> string
val all_models : model list

type counts = { per_pid : int array; total : int }

val count : model -> nprocs:int -> Memory.t -> Trace.t -> counts
(** Replay the trace's memory events and return RMR counts per process and in
    total. The memory is consulted only for DSM owners. *)

val iter : model -> Memory.t -> Trace.t -> (Trace.mem_event -> unit) -> unit
(** Replay the trace and invoke the callback once per event that incurs an
    RMR — the building block for attributed accounting (e.g. splitting the
    Algorithm 1 RMRs into TM steps versus hand-off overhead). *)

(** Online accounting for runs too large to retain a trace (the load
    engine's million-transaction sweeps run under the {!Trace.Off} sink):
    the simulator fed one event at a time, from the (pid, addr, triviality)
    triple {!Machine.packed_pend} exposes before each step. {!count} is a
    stream fed a recorded trace's events in order. *)
module Stream : sig
  type t

  val create : model -> nprocs:int -> Memory.t -> t
  (** The memory is consulted only for DSM owners. *)

  val feed : t -> pid:int -> addr:int -> trivial:bool -> unit
  (** Account one memory event: [trivial] per {!Primitive.is_trivial}
      (reads/LLs), nontrivial applications are write accesses. *)

  val counts : t -> counts
end
