(** Simulated shared memory: a growable store of base objects.

    Each base object (cell) has a value, a display name, an optional
    owner process (used by the DSM cost model of Section 5, where every
    register is local to exactly one process), and the set of outstanding
    load-links for LL/SC. *)

type t

type addr = int

val create : unit -> t

val alloc : t -> ?owner:int -> ?index:int -> name:string -> Value.t -> addr
(** Allocate a fresh base object. Allocation is a set-up action of the
    implementation, not a step of any process. With [index] the cell's
    {!name} is [name[index]]; the string is formatted only when asked. *)

val alloc_array : t -> name:string -> int -> Value.t -> addr array
(** [alloc_array t ~name n v] allocates [n] consecutive cells holding [v],
    named [name[0]] to [name[n-1]]. *)

val apply : t -> pid:int -> addr -> Primitive.t -> Value.t
(** [apply t ~pid a p] applies primitive [p] to base object [a] on behalf of
    process [pid] and returns the response. Maintains LL/SC links: [Ll]
    registers a link for [pid]; any application that writes the cell (an
    unconditional [Write]/[Fas], a successful [Cas]/[Sc], [Tas] on [false],
    a nonzero [Faa]) clears all links of [a]. Responses are drawn from the
    preallocated {!Value} constructors, so an application whose response is
    a bool, unit or small int allocates nothing.
    @raise Invalid_argument on an out-of-range address, [Tas] on a non-bool
    cell or [Faa] on a non-int cell (before any mutation). *)

val reset : t -> unit
(** Restore every cell to its [alloc]-time initial value and clear all
    load-links, in place. Allocated addresses remain valid. Values written
    with {!poke} are not sticky: [reset] returns to the original [alloc]
    values. *)

val truncate : t -> int -> unit
(** [truncate t n] forgets every cell at address [n] or above, shrinking the
    store back to an earlier {!size}. Subsequent {!alloc}s reuse the freed
    addresses. Used by machine reset so that programs which allocate during
    execution re-allocate at identical addresses on every re-run.
    @raise Invalid_argument if [n] is negative or exceeds the current size. *)

type snapshot
(** A reusable copy of the store's mutable state: cell values (immutable,
    captured by pointer) and the pid [< 62] load-link bitmasks. Load-links
    of pids [>= 62] are not captured — snapshots serve the explorer, which
    enforces [nprocs <= 62]. *)

val snapshot_make : unit -> snapshot
(** An empty snapshot buffer; grows on first use and is reusable. *)

val snapshot_into : t -> snapshot -> unit
(** Overwrite [snapshot] with the store's current state. *)

val restore_from : t -> snapshot -> unit
(** Restore the store's state from a snapshot previously taken (via
    {!snapshot_into}) of a store with the same number of cells.
    @raise Invalid_argument on a cell-count mismatch. *)

val peek : t -> addr -> Value.t
(** Observe a cell without producing an event (for tests and invariants). *)

val poke : t -> addr -> Value.t -> unit
(** Set a cell without producing an event (for test set-up only). *)

val owner : t -> addr -> int option

val name : t -> addr -> string
(** The cell's name, [name[index]] when it was allocated with an index.
    Formatted on each call (for tests and diagnostics). *)

val size : t -> int
