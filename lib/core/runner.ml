open Ptm_machine

module type Instrumented = sig
  type 'a m
  type state
  type ctx

  val init : Machine.t -> nobjs:int -> ctx
  val tm_state : ctx -> state

  type tx

  val tx_id : tx -> int
  val begin_tx : ctx -> pid:int -> tx m
  val read : ctx -> tx -> int -> (int, Tm_intf.abort) result m
  val write : ctx -> tx -> int -> int -> (unit, Tm_intf.abort) result m
  val commit : ctx -> tx -> (unit, Tm_intf.abort) result m

  val atomically :
    ctx -> pid:int -> retries:int -> (tx -> ('a, Tm_intf.abort) result m) ->
    ('a, Tm_intf.abort) result m

  val run_ops : ctx -> tx -> Workload.tx_spec -> (unit, Tm_intf.abort) result m
end

(* The instrumented TM, written once over the program signature: [Make]
   is its direct instance, [Make_step] its step instance. *)
module Body (P : Proc.S) (T : Tm_intf.Generic with type 'a m := 'a P.t) =
struct
  let ( let* ) = P.bind

  type state = T.t

  (* The transaction-id counter lives in a machine cell accessed with
     peek/poke (no events, so ids are free in the step model): a captured
     [ref] would keep counting across explorer machine re-runs, whereas the
     cell is restored with the rest of the machine, so every re-run hands
     out the same ids as a fresh one. *)
  type ctx = {
    state : T.t;
    machine : Machine.t;
    mem : Memory.t;
    next_id : Memory.addr;
    opix : Memory.addr array;  (* per-pid t-operation counter *)
  }

  let init machine ~nobjs =
    let state = T.create machine ~nobjs in
    let next_id = Machine.alloc machine ~name:"runner.next_id" (Value.Int 0) in
    let opix =
      Machine.alloc_array machine ~name:"runner.opix" (Machine.nprocs machine)
        (Value.Int 0)
    in
    { state; machine; mem = Machine.memory machine; next_id; opix }

  let tm_state ctx = ctx.state

  type tx = { pid : int; id : int; inner : T.tx; dead : bool P.var }

  let tx_id tx = tx.id

  let begin_tx ctx ~pid =
    P.suspend @@ fun () ->
    let id = Value.to_int (Memory.peek ctx.mem ctx.next_id) in
    Memory.poke ctx.mem ctx.next_id (Value.int_ (id + 1));
    P.return { pid; id; inner = T.fresh ctx.state ~pid ~id; dead = P.var false }

  let guard tx =
    if P.get tx.dead then invalid_arg "Runner: use of dead transaction"

  (* The fault layer's injected aborts are decided here, at the runner
     boundary, before the TM sees the operation: each t-operation consumes
     one slot of its pid's op-index counter (a machine cell, so explorer
     re-runs replay the same indices), and a due [Fault.Abort] turns the
     operation into an abort response without invoking the TM. The handle is
     abandoned exactly as after a TM-decided abort; the [Tx_injected_abort]
     note marks the abort as fault-injected for the progress checkers. *)
  let abort_due ctx tx =
    let cell = ctx.opix.(tx.pid) in
    let k = Value.to_int (Memory.peek ctx.mem cell) in
    Memory.poke ctx.mem cell (Value.int_ (k + 1));
    Machine.abort_due ctx.machine tx.pid ~op_index:k

  let injected tx op =
    P.set tx.dead true;
    let* () = P.note (History.Tx_inv { pid = tx.pid; tx = tx.id; op }) in
    let* () =
      P.note (History.Tx_injected_abort { pid = tx.pid; tx = tx.id })
    in
    let* () =
      P.note
        (History.Tx_res { pid = tx.pid; tx = tx.id; op; res = History.RAbort })
    in
    P.return (Error `Abort)

  (* One instrumented t-operation: the invocation note, the TM's program
     [run ()] (built after the note, where it is bound), and the response
     note [res] makes of its result. An abort or a commit ends the handle. *)
  let instrument ctx tx op run res =
    P.suspend @@ fun () ->
    guard tx;
    if abort_due ctx tx then injected tx op
    else
      let* () = P.note (History.Tx_inv { pid = tx.pid; tx = tx.id; op }) in
      let* r = run () in
      let res = res r in
      (match res with
      | History.RAbort | History.RCommit -> P.set tx.dead true
      | History.RVal _ | History.ROk -> ());
      let* () =
        P.note (History.Tx_res { pid = tx.pid; tx = tx.id; op; res })
      in
      P.return r

  let read ctx tx x =
    instrument ctx tx (History.Read x)
      (fun () -> T.read ctx.state tx.inner x)
      (function Ok v -> History.RVal v | Error `Abort -> History.RAbort)

  let write ctx tx x v =
    instrument ctx tx
      (History.Write (x, v))
      (fun () -> T.write ctx.state tx.inner x v)
      (function Ok () -> History.ROk | Error `Abort -> History.RAbort)

  let commit ctx tx =
    instrument ctx tx History.Try_commit
      (fun () -> T.try_commit ctx.state tx.inner)
      (function Ok () -> History.RCommit | Error `Abort -> History.RAbort)

  let atomically ctx ~pid ~retries body =
    P.suspend @@ fun () ->
    let rec attempt k =
      let* tx = begin_tx ctx ~pid in
      let* r = body tx in
      match r with
      | Ok a -> (
          let* c = commit ctx tx in
          match c with
          | Ok () -> P.return (Ok a)
          | Error `Abort ->
              if k < retries then attempt (k + 1) else P.return (Error `Abort))
      | Error `Abort ->
          if k < retries then attempt (k + 1) else P.return (Error `Abort)
    in
    attempt 0

  (* [for_all] stops at the first abort; in the direct instance it is
     [List.for_all], so the loop allocates nothing per operation. *)
  let run_ops ctx tx ops =
    let issue = function
      | Workload.R x -> P.map Result.is_ok (read ctx tx x)
      | Workload.W (x, v) -> P.map Result.is_ok (write ctx tx x v)
    in
    P.map (fun ok -> if ok then Ok () else Error `Abort) (P.for_all issue ops)

  (* A process's transactions in order, each through [atomically]. *)
  let program ctx ~pid ~retries txs =
    P.iter
      (fun spec ->
        P.map ignore
          (atomically ctx ~pid ~retries (fun tx -> run_ops ctx tx spec)))
      txs
end

module Make (T : Tm_intf.S) = Body (Proc.Direct) (T)
module Make_step (T : Tm_intf.S_step) = Body (Proc.Step) (T)

let spawn m (module T : Tm_intf.Both) ~retries (w : Workload.t) =
  match Machine.engine m with
  | Machine.Fibers ->
      let module R = Make (T) in
      let ctx = R.init m ~nobjs:w.nobjs in
      Array.iteri
        (fun pid txs ->
          Machine.spawn m pid (fun () -> R.program ctx ~pid ~retries txs))
        w.procs
  | Machine.Steps ->
      let module R = Make_step (T.Stepwise) in
      let ctx = R.init m ~nobjs:w.nobjs in
      Array.iteri
        (fun pid txs ->
          Machine.spawn_step m pid (R.program ctx ~pid ~retries txs))
        w.procs

type retry_policy =
  | Immediate
  | Backoff of { base : int; factor : int; cap : int }

(* The back-off rule, written once for [run] and [Load]: before retry [k],
   [d = min cap (base * factor^k)] ticks plus a pid-spread share of [d],
   so processes that aborted in the same round wake at different slots. *)
let back_off policy ~nprocs ~pid cell k =
  let ticks =
    match policy with
    | Immediate -> 0
    | Backoff { base; factor; cap } ->
        let rec go d i =
          if i <= 0 || d >= cap then min d cap else go (d * factor) (i - 1)
        in
        let d = go base k in
        min cap (d + (pid * d / nprocs))
  in
  for _ = 1 to ticks do
    ignore (Proc.read cell : Value.t)
  done;
  ticks

module Livelock = struct
  type t = {
    window : int;
    aborts_by : int array;
    mutable since_commit : int;
    mutable starved_at_trip : int list option;
  }

  let create ?(window = 64) ~nprocs () =
    if window < 1 then invalid_arg "Livelock.create: window must be >= 1";
    if nprocs < 1 then invalid_arg "Livelock.create: nprocs must be >= 1";
    {
      window;
      aborts_by = Array.make nprocs 0;
      since_commit = 0;
      starved_at_trip = None;
    }

  let looping d =
    List.filter
      (fun p -> d.aborts_by.(p) > 0)
      (List.init (Array.length d.aborts_by) Fun.id)

  let record_abort d pid =
    d.aborts_by.(pid) <- d.aborts_by.(pid) + 1;
    d.since_commit <- d.since_commit + 1;
    if d.since_commit >= d.window && d.starved_at_trip = None then
      d.starved_at_trip <- Some (looping d)

  let record_commit d pid =
    d.aborts_by.(pid) <- 0;
    d.since_commit <- 0

  let tripped d = d.starved_at_trip <> None

  let starved d =
    match d.starved_at_trip with Some ps -> ps | None -> looping d
end

type outcome = {
  machine : Machine.t;
  history : History.t;
  commits : int;
  aborts : int;
  starved : int list;
  out_of_steps : bool;
  verdict : Opacity_stream.verdict option;
  monitor_stats : Opacity_stream.stats option;
}

type schedule = Round_robin | Random_sched of int

let validate_policy = function
  | Immediate -> ()
  | Backoff { base; factor; cap } ->
      if base < 0 || factor < 1 || cap < base then
        invalid_arg "Runner.run: need base >= 0, factor >= 1, cap >= base"

let run (module T : Tm_intf.S) ?(retries = 0) ?(policy = Immediate)
    ?(faults = []) ?livelock_window ?max_steps ?(monitor = false)
    ~schedule (w : Workload.t) =
  validate_policy policy;
  let module R = Make (T) in
  let nprocs = Array.length w.Workload.procs in
  let machine = Machine.create ~nprocs () in
  let ctx = R.init machine ~nobjs:w.Workload.nobjs in
  Machine.set_faults machine faults;
  (* Online monitor: a streaming opacity checker attached to the trace's
     note observer — it sees every t-operation boundary as it is recorded
     (under any sink) and never influences the run. *)
  let mon =
    if not monitor then None
    else begin
      let mon = Opacity_stream.create () in
      Ptm_machine.Trace.set_observer (Machine.trace machine)
        (Some (Opacity_stream.on_entry mon));
      Some mon
    end
  in
  let backoff =
    Machine.alloc_array machine ~name:"runner.backoff" nprocs (Value.Int 0)
  in
  let det =
    Option.map (fun window -> Livelock.create ~window ~nprocs ()) livelock_window
  in
  let commits = ref 0 and aborts = ref 0 in
  let gave_up () =
    match det with Some d -> Livelock.tripped d | None -> false
  in
  let exec_tx pid (spec : Workload.tx_spec) =
    let rec attempt k =
      let tx = R.begin_tx ctx ~pid in
      let result =
        match R.run_ops ctx tx spec with
        | Ok () -> R.commit ctx tx
        | Error `Abort -> Error `Abort
      in
      match result with
      | Ok () ->
          incr commits;
          (match det with Some d -> Livelock.record_commit d pid | None -> ())
      | Error `Abort ->
          incr aborts;
          (match det with Some d -> Livelock.record_abort d pid | None -> ());
          if k < retries && not (gave_up ()) then begin
            ignore (back_off policy ~nprocs ~pid backoff.(pid) k : int);
            attempt (k + 1)
          end
    in
    attempt 0
  in
  Array.iteri
    (fun pid specs ->
      Machine.spawn machine pid (fun () ->
          List.iter (fun s -> if not (gave_up ()) then exec_tx pid s) specs))
    w.Workload.procs;
  let out_of_steps =
    match schedule with
    | Round_robin -> (
        try
          Sched.round_robin ?max_steps machine;
          false
        with Sched.Out_of_steps -> true)
    | Random_sched seed -> (
        try
          Sched.random ~seed ?max_steps machine;
          false
        with Sched.Out_of_steps -> true)
  in
  Machine.check_crashes machine;
  let history = History.of_trace (Machine.trace machine) in
  let starved =
    match det with
    | Some d when Livelock.tripped d -> Livelock.starved d
    | _ -> []
  in
  if Option.is_some mon then
    Ptm_machine.Trace.set_observer (Machine.trace machine) None;
  {
    machine;
    history;
    commits = !commits;
    aborts = !aborts;
    starved;
    out_of_steps;
    verdict = Option.map Opacity_stream.verdict mon;
    monitor_stats = Option.map Opacity_stream.stats mon;
  }
