(** Heavy-traffic load engine: thousands of logical clients multiplexed
    onto the machine's processes, serving millions of simulated
    transactions against any registry TM.

    Each machine process runs a {e client scheduler} multiplexing its share
    of the clients at transaction granularity: take the earliest-due client
    (the lowest client id among ties) off a {!Due} heap, run one whole
    transaction (with retries) on its behalf through the instrumented
    {!Runner} layer, put the client back under its next due time (or drop
    it when it has no transactions left), move on. Choosing a client costs
    O(log C) in the process's C clients. A client's generator
    ([Random.State.make] of the seed and its id) is made at its first
    transaction, so set-up costs O(1) per client; only an open-loop phase
    over a period above 0 is drawn at set-up. Per-process time is the
    process's own step count; when no client is due, the slot is spent on a
    scratch-cell read (an idle tick) so time keeps flowing. Before retry [k]
    of an aborted transaction (counting from 0) the process backs off for
    [min 1024 (2^k + pid * 2^k / nprocs)] idle ticks: {!Runner.back_off}
    with [Backoff { base = 1; factor = 2; cap = 1024 }], the rule
    [ptm run --backoff 1,2,1024] applies.

    The run executes under the [Off] trace sink — nothing is retained per
    step. All metrics are accounted online: RMRs via {!Ptm_machine.Rmr.Stream}
    fed from {!Ptm_machine.Machine.packed_pend} before each step, wasted work as
    step-count deltas across aborted attempts, and opacity via the
    streaming checker over a sampled fraction of clients (unsampled
    traffic is filtered down to the committed writes and closing aborts
    the checker needs for the sampled transactions to be judged against;
    [sample = 1.0] checks the entire run). *)

open Ptm_machine

type client_model =
  | Open_loop of { period : int }
      (** a new transaction every [period] steps per client, arrivals
          accumulating while the client is served ([period = 0]:
          saturation) *)
  | Closed_loop of { think : int }
      (** each client re-arms [think] steps after its previous
          transaction completes *)

type mix = {
  dist : Workload.dist;
  hotspot : (int * float) option;
  write_ratio : float;
  ops_min : int;
  ops_max : int;  (** transaction length drawn uniformly from [min..max] *)
}

val pp_mix : Format.formatter -> mix -> unit

type config = {
  clients : int;
  nprocs : int;
  nobjs : int;
  txs_per_client : int;
  model : client_model;
  mix : mix;
  seed : int;
  retries : int;
      (** retries of an aborted transaction, each after its back-off,
          before it counts as failed *)
  sample : float;  (** fraction of clients under the opacity monitor *)
  faults : Fault.spec list;
  rmr_models : Rmr.model list;
  max_slots : int;
      (** scheduler budget — crash survivors can spin forever on a base
          object the crashed process holds *)
  livelock_window : int option;
      (** arm the {!Runner.Livelock} detector across all client
          schedulers: that many consecutive aborted attempts with no
          commit anywhere latch the run — schedulers stop issuing
          transactions (remaining ones count as unstarted, the aborted
          one as failed) instead of spinning an open-loop backlog against
          e.g. a crashed lock holder until the slot budget runs dry *)
  monitor_frontier : int;
      (** frontier cap of the streaming checker (its default is 256):
          write-heavy mixes accumulate overlapping write-only commits
          whose order nothing ever forces, and past the cap the monitor
          answers [Inconclusive] — undecided, never wrong *)
}

val default_config : config
(** 64 clients on 4 processes, 64 objects, uniform half-write mix,
    saturated closed loop, 16 retries, no faults, no monitor, no RMR
    accounting. *)

type result = {
  tm : string;
  committed : int;
  aborted : int;  (** aborted transaction attempts *)
  failed : int;  (** transactions abandoned after exhausting retries *)
  unstarted : int;  (** transactions never begun (budget trip / crash) *)
  steps : int;  (** memory events over the whole run *)
  wasted : int;  (** steps spent inside aborted attempts *)
  idle : int;
      (** idle ticks across all processes: no client due, or backing off
          before a retry; [steps - idle] are the busy steps *)
  rmr : (string * int) list;  (** totals, per requested model *)
  starved : int list;
      (** processes looping on aborts when the livelock detector tripped
          ([] when it never did, or was not armed) *)
  verdict : Opacity_stream.verdict option;  (** [None] when [sample = 0] *)
  monitor_stats : Opacity_stream.stats option;
  monitored_clients : int;
      (** clients whose sampled flag, their generator's first draw, is
          set; a client that never started counts by that draw too *)
  out_of_slots : bool;
  wall : float;  (** processor seconds ([Sys.time]) inside the drive loop *)
}

val abort_rate : result -> float
(** Aborted attempts over all attempts (0 when there were none). *)

val throughput : result -> float
(** Committed transactions per processor second of [wall]. *)

val pp_result : Format.formatter -> result -> unit

val validate : config -> unit
(** Raises [Invalid_argument] on a malformed config: no client, process
    or object, fewer clients than processes, a negative [txs_per_client],
    [retries], period or think time, a transaction-length range that is
    empty or starts below 1, [write_ratio] or [sample] outside [[0, 1]],
    a [monitor_frontier] or [max_slots] below 1, or a hotspot or Zipf
    theta {!Workload.Sampler.check} rejects. It builds nothing: {!run}
    builds the sampler once. *)

(** A process's waiting clients: a binary min-heap of the indices
    [0 .. n-1] keyed by (due time, index), so the earliest-due index comes
    first and the lowest index among ties — what a scan of the clients in
    index order keeping the first strictly earlier one chooses. Exposed for
    tests. *)
module Due : sig
  type t

  val create : int array -> t
  (** [create due] queues every index of [due], [due.(i)] its due time.
      The heap owns [due] from then on. *)

  val is_empty : t -> bool

  val next : t -> now:int -> int option
  (** The least queued index if it is due ([<= now]); [None] when the
      queue is empty or its least index is due later. *)

  val due : t -> int -> int
  (** The current due time of an index. *)

  val retime : t -> int -> unit
  (** [retime t at] moves the least queued index to due time [at]. *)

  val remove : t -> unit
  (** Dequeues the least queued index. *)
end

val run : (module Tm_intf.S) -> config -> result
(** Run one load cell to completion (every client out of transactions) or
    to the slot budget. Raises [Invalid_argument] on a malformed config
    (see {!validate});
    re-raises the first process crash (a TM bug — injected crash faults
    halt processes without raising). *)
