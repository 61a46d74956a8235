(** Streaming opacity checker: linearizability against a TMS automaton.

    Armstrong–Dongol–Doherty (arXiv:1610.01004) reduce opacity to
    linearizability of the history against the TMS transactional-memory
    automaton, whose state is the sequence of committed memory snapshots.
    This module implements that reduction as an {e online} checker: it
    consumes history events one at a time ({!on_event}, or {!on_entry} fed
    from a {!Ptm_machine.Trace} note observer), maintains a frontier of
    reachable automaton states, and latches a violation at the first event
    no state survives — the consumed prefix is then a minimal (prefix-closed)
    counterexample.

    Automaton state, per frontier member (DESIGN.md §8):

    - the committed snapshot sequence, kept as per-object version lists with
      a watermark so resident state stays bounded by the {e live} window of
      the history, not its length;
    - per live transaction: its begin index, buffered writes, externally read
      values, and the set of snapshot indices at which its whole read set is
      valid (an interval list — re-committed values make it non-contiguous);
    - the set of commit-pending transactions whose internal commit point has
      been speculatively linearized already.

    Shared by the whole frontier: each process's outstanding invocation, and
    the set of transaction ids seen so far, kept as coalesced intervals. A
    seen id that the states hold neither live nor linearized has completed,
    so no per-transaction record outlives its transaction. Consecutive ids
    keep the set at one interval; each run of ids never seen below the
    highest one seen adds one more.

    The only nondeterminism of the automaton is {e where} inside its
    invocation window each try-commit linearizes. The checker resolves it
    lazily: a pending commit is applied only when forced (its own [RCommit]
    response, or an event only consistent with it having happened), and every
    commit response branches over orderings with the other unapplied pending
    commits. The frontier is deduplicated and in practice stays at a handful
    of states (its size is bounded by the number of processes able to hold a
    pending try-commit); a configurable cap turns pathological branching into
    an {!Inconclusive} verdict instead of a blow-up. The same cap, times
    four, bounds the states one event may enumerate while it linearizes
    pending commits, whose closure grows exponentially with the number of
    overlapping pending commits.

    Per-event cost is O(log live) amortized; checking a 10⁶-event history is
    a matter of seconds ([bench/main.exe -- e15] measures it).

    Beyond opacity the checker enforces history {e well-formedness}: a
    response must match its process's pending invocation, a process with
    an outstanding operation must not invoke another (a dropped mid-history
    commit response is flagged at that process's next invocation), and a
    completed transaction must not invoke again. Histories
    produced by {!Runner} are always well-formed; mutants
    ({!History.mutate}) may not be.

    End-of-history finalization matches the offline checker
    ({!Checker.opaque}) exactly: transactions still inside an operation at
    the end (crash truncation, {!Ptm_machine.Fault}) are completed as
    aborted, and a forever-pending try-commit is completed either way —
    committed in frontier states that linearized it, aborted in those that
    did not. *)

(** {2 Events} *)

type event =
  | Inv of { pid : int; tx : int; op : History.op }
  | Res of { pid : int; tx : int; op : History.op; res : History.res }

val pp_event : Format.formatter -> event -> unit

(** {2 Verdicts} *)

type violation = {
  v_seq : int;  (** trace seq of the failing event (its stream index when fed
                    via {!on_event} with no trace) *)
  v_event : string;  (** the failing event, rendered *)
  v_reason : string;
}

type verdict =
  | Opaque
  | Violation of violation
      (** the consumed prefix ending at [v_seq] is not opaque (or not
          well-formed); the checker is latched and ignores further events *)
  | Inconclusive of string
      (** the frontier exceeded its cap, or one event's closure of pending
          commit linearizations exceeded four times the cap — undecided,
          never wrong *)

val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val is_ok : verdict -> bool
(** [true] only for {!Opaque}. *)

(** {2 Resource accounting} *)

type stats = {
  events : int;  (** history events consumed *)
  snapshots : int;  (** committed snapshots appended (max over the frontier) *)
  max_frontier : int;  (** peak frontier size *)
  max_live : int;  (** peak live-transaction count *)
  resident : int;
      (** current retained version-list entries + live records, summed over
          the frontier, plus the seen-id intervals and outstanding
          invocations — the checker's working set *)
  max_resident : int;  (** peak of [resident]: the "peak resident state" of
                           a checking run *)
}

val pp_stats : Format.formatter -> stats -> unit

(** {2 Checker} *)

type t

val create : ?max_frontier:int -> unit -> t
(** A fresh checker in the initial automaton state (every t-object holds
    {!Tm_intf.init_value}). [max_frontier] (default 256) caps the frontier,
    and [4 * max_frontier] the states one event's linearization of pending
    commits may hold; exceeding either yields {!Inconclusive}. *)

val on_event : t -> ?seq:int -> event -> unit
(** Feed one history event. [seq] (default: the running event count) is the
    position reported in violations. No-op once latched. *)

val on_entry : t -> Ptm_machine.Trace.entry -> unit
(** Feed one trace entry: {!History.Tx_inv} / {!History.Tx_res} notes are
    consumed (with their trace seq), everything else — memory events,
    {!History.Tx_injected_abort} markers, foreign notes — is ignored.
    Suitable as a {!Ptm_machine.Trace.set_observer} callback. *)

val verdict : t -> verdict
(** The verdict over the prefix consumed so far, {e including} finalization
    of in-flight transactions — opacity is prefix-closed, so this is also
    the final verdict if the history ends here. *)

val stats : t -> stats

val check_entries :
  ?max_frontier:int -> Ptm_machine.Trace.entry list -> verdict * stats
(** One-shot: feed every entry, return the verdict. *)

val check_trace : ?max_frontier:int -> Ptm_machine.Trace.t -> verdict * stats
(** One-shot over a recorded trace's retained entries. *)
