open Ptm_machine

(* Heavy-traffic load engine: thousands of logical clients multiplexed onto
   the machine's processes, millions of transactions, metrics accounted
   online so nothing scales with run length.

   Multiplexing is at {e transaction} granularity: a machine process runs a
   client scheduler that takes the earliest-due client off a heap of its
   clients, executes one whole transaction (with retries) on its behalf,
   and moves on. A client's generator is made at its first transaction, so
   set-up costs O(1) per client and choosing the next one O(log C). The
   streaming opacity checker's per-pid well-formedness (one outstanding
   t-operation per process) is thereby preserved — concurrency comes from
   the machine interleaving processes at step granularity, as always.

   Time, per process, is its own machine step count ({!Machine.steps_of}):
   open-loop clients arrive on a fixed step period (a FIFO backlog builds up
   when service is slower than arrival), closed-loop clients re-arm
   [think] steps after each completion. When no client is due the process
   spends the slot on a scratch-cell read — an {e idle tick}, so time
   advances and the machine stays faithful to "one step, one event". An
   aborted attempt is retried after a back-off spent in the same idle
   ticks, counted as idle and never as wasted.

   The run executes under the [Off] trace sink. Everything normally
   recovered from the trace is accounted online instead: RMRs are fed to
   {!Rmr.Stream} from {!Machine.packed_pend} immediately before each step,
   wasted work is the step-count delta across aborted attempts, and the
   opacity monitor consumes history notes through the trace observer —
   sampled down to a configurable fraction of clients by a note filter that
   keeps exactly what the checker needs from unsampled traffic (committed
   writes and closing aborts), drops the rest, and renumbers transactions
   densely in the order the checker meets them. *)

type client_model =
  | Open_loop of { period : int }
      (** a new transaction every [period] steps per client, arrivals
          accumulate while the client is being served ([period = 0]:
          saturation — the backlog never empties) *)
  | Closed_loop of { think : int }
      (** each client re-arms [think] steps after its previous transaction
          completes *)

type mix = {
  dist : Workload.dist;
  hotspot : (int * float) option;
  write_ratio : float;
  ops_min : int;
  ops_max : int;  (** transaction length drawn uniformly from [min..max] *)
}

let pp_mix ppf m =
  Format.fprintf ppf "%s%s w%.2f len %d..%d"
    (match m.dist with
    | Workload.Uniform -> "uniform"
    | Workload.Zipf theta -> Printf.sprintf "zipf(%.2f)" theta)
    (match m.hotspot with
    | None -> ""
    | Some (h, p) -> Printf.sprintf " hot(%d,%.2f)" h p)
    m.write_ratio m.ops_min m.ops_max

type config = {
  clients : int;
  nprocs : int;
  nobjs : int;
  txs_per_client : int;
  model : client_model;
  mix : mix;
  seed : int;
  retries : int;
  sample : float;  (** fraction of clients under the opacity monitor *)
  faults : Fault.spec list;
  rmr_models : Rmr.model list;
  max_slots : int;  (** scheduler budget (crash survivors can spin forever) *)
  livelock_window : int option;
      (** arm the {!Runner.Livelock} detector: that many consecutive
          aborted attempts with no commit anywhere latch the run — client
          schedulers stop issuing transactions instead of spinning an
          open-loop backlog forever (a crashed lock holder under
          saturation) *)
  monitor_frontier : int;
      (** checker frontier cap: write-heavy mixes accumulate genuinely
          order-ambiguous overlapping commits, and past the cap the
          monitor answers [Inconclusive] rather than blowing up *)
}

let default_config =
  {
    clients = 64;
    nprocs = 4;
    nobjs = 64;
    txs_per_client = 16;
    model = Closed_loop { think = 0 };
    mix =
      {
        dist = Workload.Uniform;
        hotspot = None;
        write_ratio = 0.5;
        ops_min = 2;
        ops_max = 6;
      };
    seed = 1;
    retries = 16;
    sample = 0.0;
    faults = [];
    rmr_models = [];
    max_slots = 50_000_000;
    livelock_window = None;
    monitor_frontier = 256;
  }

type result = {
  tm : string;
  committed : int;
  aborted : int;  (** aborted transaction attempts *)
  failed : int;  (** transactions abandoned after exhausting retries *)
  unstarted : int;  (** transactions never begun (budget trip / crash) *)
  steps : int;  (** memory events over the whole run *)
  wasted : int;  (** steps spent inside aborted attempts *)
  idle : int;  (** idle ticks across all processes *)
  rmr : (string * int) list;  (** total per requested model *)
  starved : int list;
      (** processes looping on aborts when the livelock detector tripped
          ([] when it never did, or was not armed) *)
  verdict : Opacity_stream.verdict option;  (** [None] when [sample = 0] *)
  monitor_stats : Opacity_stream.stats option;
  monitored_clients : int;
  out_of_slots : bool;
  wall : float;  (** processor seconds ([Sys.time]) inside the drive loop *)
}

let abort_rate r =
  let attempts = r.committed + r.aborted in
  if attempts = 0 then 0.0 else float_of_int r.aborted /. float_of_int attempts

let throughput r =
  if r.wall <= 0.0 then 0.0 else float_of_int r.committed /. r.wall

let pp_result ppf r =
  Format.fprintf ppf
    "%s: %d committed, %d aborted (rate %.3f), %d failed, %d unstarted, %d \
     steps (%d wasted, %d idle)%a%s%s, %.0f tx/s"
    r.tm r.committed r.aborted (abort_rate r) r.failed r.unstarted r.steps
    r.wasted r.idle
    (fun ppf -> function
      | [] -> ()
      | rmr ->
          List.iter (fun (m, n) -> Format.fprintf ppf ", %s %d" m n) rmr)
    r.rmr
    (match r.starved with
    | [] -> ""
    | ps ->
        Printf.sprintf ", LIVELOCK starved p[%s]"
          (String.concat ";" (List.map string_of_int ps)))
    (match r.verdict with
    | None -> ""
    | Some v -> Format.asprintf ", monitor %a" Opacity_stream.pp_verdict v)
    (throughput r)

(* ------------------------------------------------------------------ *)
(* Monitor sampling                                                    *)
(* ------------------------------------------------------------------ *)

(* The note filter between the machine's observer hook and the checker.
   Sampled clients stream every note through. For unsampled clients the
   checker still needs the traffic that affects what sampled transactions
   may observe — committed writes — plus enough structure to stay
   well-formed and to close every forwarded transaction:

   - write inv/res pairs are forwarded (marking the transaction as
     updating);
   - try-commit pairs are forwarded iff the transaction wrote (a read-only
     commit moves no snapshot);
   - read pairs are dropped, except that a read {e aborting} forwards its
     (stashed) invocation and response, so a forwarded updating
     transaction is closed rather than left live in the checker's frontier
     forever;
   - everything else (injected-abort markers, mem events) passes through —
     the checker ignores it.

   Every forwarded transaction reaches the checker under a dense id of its
   own: 0, 1, 2, ... in the order of its first forwarded note. The checker
   keeps the ids it has seen as an interval set, and a transaction that is
   never forwarded would leave a gap in it for good, so the set would grow
   with the run; renamed, it stays one interval. Renaming transactions
   changes no verdict; a violation then names the checker's id and the
   trace seq of the failing note. With every client sampled the mapping is
   the identity: each transaction's first note comes right after it
   draws its id, with no step between.

   Per-pid state suffices: multiplexing is at transaction granularity, so
   the current client's sampled flag (maintained by the client scheduler)
   and the current transaction are stable across each transaction's
   notes. *)
type filter = {
  chk : Opacity_stream.t;
  cur_sampled : bool array;
  pending_read_inv : Trace.entry option array;
  tx_wrote : bool array;
  drop_commit : bool array;
  tx_seen : int array;  (** the transaction last forwarded for this pid *)
  tx_dense : int array;  (** and the checker's id for it *)
  mutable next_dense : int;
}

let filter_create ~nprocs chk =
  {
    chk;
    cur_sampled = Array.make nprocs false;
    pending_read_inv = Array.make nprocs None;
    tx_wrote = Array.make nprocs false;
    drop_commit = Array.make nprocs false;
    tx_seen = Array.make nprocs (-1);
    tx_dense = Array.make nprocs (-1);
    next_dense = 0;
  }

let dense f ~pid tx =
  if f.tx_seen.(pid) <> tx then begin
    f.tx_seen.(pid) <- tx;
    f.tx_dense.(pid) <- f.next_dense;
    f.next_dense <- f.next_dense + 1
  end;
  f.tx_dense.(pid)

let renumber f (e : Trace.entry) =
  match e with
  | Trace.Note ({ note = History.Tx_inv { pid; tx; op }; _ } as n) ->
      let d = dense f ~pid tx in
      if d = tx then e
      else Trace.Note { n with note = History.Tx_inv { pid; tx = d; op } }
  | Trace.Note ({ note = History.Tx_res { pid; tx; op; res }; _ } as n) ->
      let d = dense f ~pid tx in
      if d = tx then e
      else
        Trace.Note { n with note = History.Tx_res { pid; tx = d; op; res } }
  | e -> e

let filter_entry f (e : Trace.entry) =
  let fwd e = Opacity_stream.on_entry f.chk (renumber f e) in
  match e with
  | Trace.Note { note = History.Tx_inv { pid; op; _ }; _ } -> (
      if f.cur_sampled.(pid) then fwd e
      else
        match op with
        | History.Read _ -> f.pending_read_inv.(pid) <- Some e
        | History.Write _ ->
            f.tx_wrote.(pid) <- true;
            fwd e
        | History.Try_commit ->
            if f.tx_wrote.(pid) then fwd e else f.drop_commit.(pid) <- true)
  | Trace.Note { note = History.Tx_res { pid; op; res; _ }; _ } -> (
      if f.cur_sampled.(pid) then fwd e
      else
        match op with
        | History.Read _ ->
            (match res with
            | History.RAbort ->
                (match f.pending_read_inv.(pid) with
                | Some inv -> fwd inv
                | None -> ());
                fwd e;
                f.tx_wrote.(pid) <- false
            | _ -> ());
            f.pending_read_inv.(pid) <- None
        | History.Write _ ->
            fwd e;
            if res = History.RAbort then f.tx_wrote.(pid) <- false
        | History.Try_commit ->
            if f.drop_commit.(pid) then f.drop_commit.(pid) <- false
            else fwd e;
            f.tx_wrote.(pid) <- false)
  | e -> fwd e

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

(* A process's clients waiting for service, as a binary min-heap of client
   indices keyed by (due time, index): the earliest-due client first, the
   lowest index among ties. The heap owns the due times. *)
module Due = struct
  type t = { due : int array; heap : int array; mutable size : int }

  let before t i j =
    let di = t.due.(i) and dj = t.due.(j) in
    di < dj || (di = dj && i < j)

  let rec sift_down t k =
    let l = (2 * k) + 1 in
    if l < t.size then begin
      let c =
        if l + 1 < t.size && before t t.heap.(l + 1) t.heap.(l) then l + 1
        else l
      in
      if before t t.heap.(c) t.heap.(k) then begin
        let x = t.heap.(k) in
        t.heap.(k) <- t.heap.(c);
        t.heap.(c) <- x;
        sift_down t c
      end
    end

  let create due =
    let n = Array.length due in
    let t = { due; heap = Array.init n Fun.id; size = n } in
    for k = (n / 2) - 1 downto 0 do
      sift_down t k
    done;
    t

  let is_empty t = t.size = 0
  let due t i = t.due.(i)

  let next t ~now =
    if t.size > 0 && t.due.(t.heap.(0)) <= now then Some t.heap.(0) else None

  let retime t at =
    t.due.(t.heap.(0)) <- at;
    sift_down t 0

  let remove t =
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
end

type client = {
  id : int;
  mutable rng : Random.State.t option;
      (** made at the client's first transaction, or at set-up when an
          open-loop phase is drawn *)
  mutable sampled : bool;  (** the first draw of [rng], once it is made *)
  mutable txs_left : int;
}

(* Deterministic per-client generator streams: derived from the run seed
   and the client id, independent of scheduling. *)
let client_rng ~seed cid = Random.State.make [| 0x10ad; seed; cid |]

let draw_sampled ~sample rng =
  sample > 0.0 && Random.State.float rng 1.0 < sample

let rng_of ~seed ~sample cl =
  match cl.rng with
  | Some rng -> rng
  | None ->
      let rng = client_rng ~seed cl.id in
      cl.sampled <- draw_sampled ~sample rng;
      cl.rng <- Some rng;
      rng

(* A client that never made its generator is counted by the draw it would
   have made first, without making it where [sample] decides alone: 0 never
   draws, and a draw in [0, 1) always falls below 1. *)
let monitored ~seed ~sample cl =
  match cl.rng with
  | Some _ -> cl.sampled
  | None ->
      sample >= 1.0
      || (sample > 0.0 && draw_sampled ~sample (client_rng ~seed cl.id))

let gen_tx ~(mix : mix) ~sampler ~next_value rng =
  let n =
    mix.ops_min + Random.State.int rng (mix.ops_max - mix.ops_min + 1)
  in
  List.init n (fun _ ->
      let x = Workload.Sampler.draw sampler rng in
      if Random.State.float rng 1.0 < mix.write_ratio then
        Workload.W (x, next_value ())
      else Workload.R x)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let validate cfg =
  if cfg.clients < 1 then invalid_arg "Load: clients must be >= 1";
  if cfg.nprocs < 1 then invalid_arg "Load: nprocs must be >= 1";
  if cfg.nobjs < 1 then invalid_arg "Load: nobjs must be >= 1";
  if cfg.monitor_frontier < 1 then
    invalid_arg "Load: monitor_frontier must be >= 1";
  if cfg.max_slots < 1 then invalid_arg "Load: max_slots must be >= 1";
  (* the hotspot and Zipf checks are the sampler's own *)
  (try
     Workload.Sampler.check ?hotspot:cfg.mix.hotspot ~dist:cfg.mix.dist
       ~nobjs:cfg.nobjs ()
   with Workload.Invalid_spec e ->
     invalid_arg ("Load: " ^ Workload.spec_error_to_string e));
  if cfg.clients < cfg.nprocs then
    invalid_arg "Load: need at least one client per process";
  if cfg.txs_per_client < 0 then invalid_arg "Load: negative txs_per_client";
  if cfg.mix.ops_min < 1 || cfg.mix.ops_max < cfg.mix.ops_min then
    invalid_arg "Load: bad tx-length range";
  if cfg.retries < 0 then invalid_arg "Load: retries must be >= 0";
  let in_unit x = x >= 0.0 && x <= 1.0 in
  if not (in_unit cfg.mix.write_ratio) then
    invalid_arg "Load: write_ratio must be within [0, 1]";
  if not (in_unit cfg.sample) then
    invalid_arg "Load: sample must be within [0, 1]";
  (match cfg.model with
  | Open_loop { period } -> if period < 0 then invalid_arg "Load: negative period"
  | Closed_loop { think } -> if think < 0 then invalid_arg "Load: negative think")

(* Before retry [k] a process waits [min 1024 (2^k + pid * 2^k / nprocs)]
   idle ticks (Runner's back-off rule): re-issuing at once lets the
   processes that just collided collide again, round after round. *)
let retry_wait = Runner.Backoff { base = 1; factor = 2; cap = 1024 }

let run (module T : Tm_intf.S) cfg =
  validate cfg;
  let sampler =
    Workload.Sampler.make ?hotspot:cfg.mix.hotspot ~dist:cfg.mix.dist
      ~nobjs:cfg.nobjs ()
  in
  let m = Machine.create ~trace:Trace.Off ~nprocs:cfg.nprocs () in
  let module R = Runner.Make (T) in
  let ctx = R.init m ~nobjs:cfg.nobjs in
  let scratch =
    Array.init cfg.nprocs (fun pid ->
        Machine.alloc m ~owner:pid ~name:"load.scratch" ~index:pid
          (Value.Int 0))
  in
  let seed = cfg.seed and sample = cfg.sample in
  (* clients, dealt round-robin over processes: client [cid] is process
     [cid mod nprocs]'s [cid / nprocs]-th *)
  let clients_of =
    Array.init cfg.nprocs (fun pid ->
        Array.init
          ((cfg.clients - pid + cfg.nprocs - 1) / cfg.nprocs)
          (fun i ->
            {
              id = (i * cfg.nprocs) + pid;
              rng = None;
              sampled = false;
              txs_left = cfg.txs_per_client;
            }))
  in
  let chk, filter =
    if cfg.sample > 0.0 then begin
      let chk = Opacity_stream.create ~max_frontier:cfg.monitor_frontier () in
      let f = filter_create ~nprocs:cfg.nprocs chk in
      Trace.set_observer (Machine.trace m) (Some (filter_entry f));
      (Some chk, Some f)
    end
    else (None, None)
  in
  Machine.set_faults m cfg.faults;
  (* Livelock latch: shared across all client schedulers — consecutive
     aborted attempts with no commit anywhere trip it, and every scheduler
     then stops issuing transactions (the open-loop backlog would
     otherwise spin against e.g. a crashed lock holder until the slot
     budget runs dry). *)
  let det =
    Option.map
      (fun window -> Runner.Livelock.create ~window ~nprocs:cfg.nprocs ())
      cfg.livelock_window
  in
  let gave_up () =
    match det with Some d -> Runner.Livelock.tripped d | None -> false
  in
  (* per-process accounting, mutated from inside the process bodies (host
     state: fine for a single live run that never restarts) *)
  let committed = Array.make cfg.nprocs 0 in
  let aborted = Array.make cfg.nprocs 0 in
  let failed = Array.make cfg.nprocs 0 in
  let idle = Array.make cfg.nprocs 0 in
  let wasted = Array.make cfg.nprocs 0 in
  let value_ctr = Array.make cfg.nprocs 0 in
  for pid = 0 to cfg.nprocs - 1 do
    let mine = clients_of.(pid) in
    let next_value () =
      value_ctr.(pid) <- value_ctr.(pid) + 1;
      ((pid + 1) * 1_000_000_000) + value_ctr.(pid)
    in
    (* the clients with transactions left; open-loop arrival phases are
       spread over the period so clients of one process don't arrive in
       lockstep, drawn right after the sampled flag *)
    let queue =
      if cfg.txs_per_client = 0 then Due.create [||]
      else
        Due.create
          (match cfg.model with
          | Open_loop { period } when period > 0 ->
              Array.map
                (fun cl -> Random.State.int (rng_of ~seed ~sample cl) period)
                mine
          | _ -> Array.make (Array.length mine) 0)
    in
    Machine.spawn m pid (fun () ->
        while not (Due.is_empty queue) && not (gave_up ()) do
          match Due.next queue ~now:(Machine.steps_of m pid) with
          | None ->
              idle.(pid) <- idle.(pid) + 1;
              ignore (Proc.read scratch.(pid) : Value.t)
          | Some i ->
              let cl = mine.(i) in
              let rng = rng_of ~seed ~sample cl in
              (match filter with
              | Some f -> f.cur_sampled.(pid) <- cl.sampled
              | None -> ());
              let ops = gen_tx ~mix:cfg.mix ~sampler ~next_value rng in
              let rec attempt k =
                let s0 = Machine.steps_of m pid in
                let tx = R.begin_tx ctx ~pid in
                let outcome =
                  match R.run_ops ctx tx ops with
                  | Ok () -> R.commit ctx tx
                  | Error `Abort -> Error `Abort
                in
                match outcome with
                | Ok () ->
                    committed.(pid) <- committed.(pid) + 1;
                    (match det with
                    | Some d -> Runner.Livelock.record_commit d pid
                    | None -> ())
                | Error `Abort ->
                    aborted.(pid) <- aborted.(pid) + 1;
                    wasted.(pid) <-
                      wasted.(pid) + (Machine.steps_of m pid - s0);
                    (match det with
                    | Some d -> Runner.Livelock.record_abort d pid
                    | None -> ());
                    if k < cfg.retries && not (gave_up ()) then begin
                      idle.(pid) <-
                        idle.(pid)
                        + Runner.back_off retry_wait ~nprocs:cfg.nprocs ~pid
                            scratch.(pid) k;
                      attempt (k + 1)
                    end
                    else failed.(pid) <- failed.(pid) + 1
              in
              attempt 0;
              cl.txs_left <- cl.txs_left - 1;
              if cl.txs_left = 0 then Due.remove queue
              else
                Due.retime queue
                  (match cfg.model with
                  | Open_loop { period } -> Due.due queue i + period
                  | Closed_loop { think } -> Machine.steps_of m pid + think)
        done)
  done;
  (* the drive loop: round-robin over runnable processes, feeding the RMR
     streams from the packed pending event immediately before each step *)
  let streams =
    List.map
      (fun model ->
        (model, Rmr.Stream.create model ~nprocs:cfg.nprocs (Machine.memory m)))
      cfg.rmr_models
  in
  let slots = ref 0 in
  let t0 = Sys.time () in
  let out_of_slots = ref false in
  let running = ref true in
  while !running do
    running := false;
    for pid = 0 to cfg.nprocs - 1 do
      if !slots < cfg.max_slots && Machine.is_runnable m pid then begin
        incr slots;
        let p = Machine.packed_pend m pid in
        if p >= 0 then
          List.iter
            (fun (_, st) ->
              Rmr.Stream.feed st ~pid ~addr:(p lsr 1)
                ~trivial:(p land 1 = 1))
            streams;
        ignore (Machine.step m pid : Machine.step_result);
        running := true
      end
    done;
    if !slots >= cfg.max_slots && not (Machine.all_done m) then begin
      out_of_slots := true;
      running := false
    end
  done;
  let wall = Sys.time () -. t0 in
  Machine.check_crashes m;
  let sum a = Array.fold_left ( + ) 0 a in
  let steps = ref 0 in
  for pid = 0 to cfg.nprocs - 1 do
    steps := !steps + Machine.steps_of m pid
  done;
  let done_txs = sum committed + sum failed in
  {
    tm = T.name;
    committed = sum committed;
    aborted = sum aborted;
    failed = sum failed;
    unstarted = (cfg.clients * cfg.txs_per_client) - done_txs;
    steps = !steps;
    wasted = sum wasted;
    idle = sum idle;
    rmr =
      List.map
        (fun (model, st) ->
          (Rmr.model_name model, (Rmr.Stream.counts st).Rmr.total))
        streams;
    starved =
      (match det with
      | Some d when Runner.Livelock.tripped d -> Runner.Livelock.starved d
      | _ -> []);
    verdict = Option.map Opacity_stream.verdict chk;
    monitor_stats = Option.map Opacity_stream.stats chk;
    monitored_clients =
      Array.fold_left
        (Array.fold_left (fun n cl ->
             if monitored ~seed ~sample cl then n + 1 else n))
        0 clients_of;
    out_of_slots = !out_of_slots;
    wall;
  }
