(** Execution traces: the ground truth of an execution (paper, Section 2).

    Every application of a primitive to a base object is recorded as a
    {!mem_event} — one event of the paper's model. Algorithms may additionally
    emit zero-cost {e notes} (an open type extended by higher layers, e.g.
    t-operation invocations/responses), which record logical structure without
    counting as steps. Offline analyses (step counting, RMR accounting,
    history extraction, invisibility and DAP checking) are pure functions of
    the trace.

    A trace is a {e sink}: {!Full} retains every entry in a flat
    O(1)-amortized array (the default, and what every offline analysis
    expects), {!Ring}[ n] retains only the last [n] entries (bounded memory
    for long debugging runs), and {!Off} retains nothing — the machine's
    per-step recording cost drops to a counter increment, which is what lets
    the schedule explorer run allocation-free. Sequence numbers are global
    schedule positions and keep advancing even when the sink drops entries,
    so {!length} is the event+note count under every sink. *)

type note = ..

type note += Label of string  (** free-form annotation, mostly for debugging *)

type mem_event = {
  seq : int;  (** global sequence number, shared with notes *)
  pid : int;
  addr : int;
  prim : Primitive.t;
  resp : Value.t;
  changed : bool;  (** whether the application changed the base object *)
}

type entry = Mem of mem_event | Note of { seq : int; pid : int; note : note }

type sink =
  | Off  (** record nothing; {!length} still counts *)
  | Ring of int  (** keep the last [n] entries (capacity must be positive) *)
  | Full  (** keep everything (default) *)

type t

val create : ?sink:sink -> unit -> t
(** Defaults to {!Full}. Raises [Invalid_argument] on [Ring n] with
    [n <= 0]. *)

val sink : t -> sink

val recording : t -> bool
(** [false] iff the sink is {!Off} — callers on a hot path may then skip
    computing the entry's fields entirely and call {!tick} instead. *)

val tick : t -> unit
(** Count one elided event: advances {!length} without recording. *)

val add_mem : t -> pid:int -> addr:int -> Primitive.t -> Value.t -> bool -> unit
val add_note : t -> pid:int -> note -> unit

val set_observer : t -> (entry -> unit) option -> unit
(** Attach (or detach, with [None]) a note observer: called with every
    {!Note} entry as it is recorded — including under an {!Off} sink, where
    the entry is built solely for the observer and not retained. Memory
    events are {e not} observed (the hot path stays branch-free for them);
    online monitors such as the streaming opacity checker only need the
    t-operation notes. The observer survives {!clear} (pooled machines keep
    their monitor across restarts); it must not mutate the trace. *)

val clear : t -> unit
(** Return to the freshly-created state — seq counter back to 0, nothing
    stored — keeping the underlying buffer allocated for reuse. *)

val rewind : t -> int -> unit
(** [rewind t n] returns the trace to the moment it had [length] [n]:
    entries with sequence number [n] or above are dropped and numbering
    resumes at [n]. Under {!Ring} the retained entries below [n] are those
    that later entries did not overwrite. Notes are not re-sent to the
    observer. Raises [Invalid_argument] unless [0 <= n <= length t]. *)

val length : t -> int
(** Total entries recorded since creation (the seq counter), whether or not
    the sink retained them. *)

val stored : t -> int
(** Entries currently retained: [length] for {!Full}, at most [n] for
    {!Ring}[ n], [0] for {!Off}. *)

val first_seq : t -> int
(** Sequence number of the oldest retained entry ([length - stored]). *)

val get : t -> int -> entry
(** [get t seq]: the retained entry with sequence number [seq], in O(1).
    Raises [Invalid_argument] if the sink no longer (or never) holds it. *)

val entries : t -> entry list
(** All retained entries, oldest first. *)

val iter : t -> (entry -> unit) -> unit
(** Iterate the retained entries oldest-first, without building a list. *)

val iter_from : t -> int -> (entry -> unit) -> unit
(** [iter_from t seq f]: like {!iter} but only entries with sequence number
    [>= seq] — O(stored from that point), not O(whole trace). *)

val mem_events : t -> mem_event list

val pp_entry : pp_note:(Format.formatter -> note -> unit) -> Format.formatter -> entry -> unit
val pp_note_default : Format.formatter -> note -> unit
