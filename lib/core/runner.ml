open Ptm_machine

module Make (T : Tm_intf.S) = struct
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
      Array.init (Machine.nprocs machine) (fun i ->
          Machine.alloc machine
            ~name:(Printf.sprintf "runner.opix.p%d" i)
            (Value.Int 0))
    in
    { state; machine; mem = Machine.memory machine; next_id; opix }

  let tm_state ctx = ctx.state

  type tx = { pid : int; id : int; inner : T.tx; mutable dead : bool }

  let tx_id tx = tx.id

  let begin_tx ctx ~pid =
    let id = Value.to_int (Memory.peek ctx.mem ctx.next_id) in
    Memory.poke ctx.mem ctx.next_id (Value.int_ (id + 1));
    { pid; id; inner = T.fresh ctx.state ~pid ~id; dead = false }

  let guard tx = if tx.dead then invalid_arg "Runner: use of dead transaction"

  (* The fault layer's injected aborts are decided here, at the runner
     boundary, before the TM sees the operation: each t-operation consumes
     one slot of its pid's op-index counter (a machine cell, so explorer
     re-runs replay the same indices), and a due [Fault.Abort] turns the
     operation into an abort response without invoking the TM. The handle is
     abandoned exactly as after a TM-decided abort; the [Tx_injected_abort]
     note marks the abort as fault-injected for the progress checkers. *)
  let fault_abort ctx tx op =
    let cell = ctx.opix.(tx.pid) in
    let k = Value.to_int (Memory.peek ctx.mem cell) in
    Memory.poke ctx.mem cell (Value.int_ (k + 1));
    Machine.abort_due ctx.machine tx.pid ~op_index:k
    && begin
         tx.dead <- true;
         Proc.note (History.Tx_inv { pid = tx.pid; tx = tx.id; op });
         Proc.note (History.Tx_injected_abort { pid = tx.pid; tx = tx.id });
         Proc.note
           (History.Tx_res
              { pid = tx.pid; tx = tx.id; op; res = History.RAbort });
         true
       end

  let read ctx tx x =
    guard tx;
    if fault_abort ctx tx (History.Read x) then Error `Abort
    else begin
    Proc.note (History.Tx_inv { pid = tx.pid; tx = tx.id; op = History.Read x });
    match T.read ctx.state tx.inner x with
    | Ok v ->
        Proc.note
          (History.Tx_res
             { pid = tx.pid; tx = tx.id; op = History.Read x; res = History.RVal v });
        Ok v
    | Error `Abort ->
        tx.dead <- true;
        Proc.note
          (History.Tx_res
             { pid = tx.pid; tx = tx.id; op = History.Read x; res = History.RAbort });
        Error `Abort
    end

  let write ctx tx x v =
    guard tx;
    if fault_abort ctx tx (History.Write (x, v)) then Error `Abort
    else begin
    Proc.note
      (History.Tx_inv { pid = tx.pid; tx = tx.id; op = History.Write (x, v) });
    match T.write ctx.state tx.inner x v with
    | Ok () ->
        Proc.note
          (History.Tx_res
             {
               pid = tx.pid;
               tx = tx.id;
               op = History.Write (x, v);
               res = History.ROk;
             });
        Ok ()
    | Error `Abort ->
        tx.dead <- true;
        Proc.note
          (History.Tx_res
             {
               pid = tx.pid;
               tx = tx.id;
               op = History.Write (x, v);
               res = History.RAbort;
             });
        Error `Abort
    end

  let commit ctx tx =
    guard tx;
    if fault_abort ctx tx History.Try_commit then Error `Abort
    else begin
    Proc.note (History.Tx_inv { pid = tx.pid; tx = tx.id; op = History.Try_commit });
    match T.try_commit ctx.state tx.inner with
    | Ok () ->
        tx.dead <- true;
        Proc.note
          (History.Tx_res
             { pid = tx.pid; tx = tx.id; op = History.Try_commit; res = History.RCommit });
        Ok ()
    | Error `Abort ->
        tx.dead <- true;
        Proc.note
          (History.Tx_res
             { pid = tx.pid; tx = tx.id; op = History.Try_commit; res = History.RAbort });
        Error `Abort
    end

  let atomically ctx ~pid ~retries body =
    let rec attempt k =
      let tx = begin_tx ctx ~pid in
      match body tx with
      | Ok a -> (
          match commit ctx tx with
          | Ok () -> Ok a
          | Error `Abort -> if k < retries then attempt (k + 1) else Error `Abort)
      | Error `Abort -> if k < retries then attempt (k + 1) else Error `Abort
    in
    attempt 0
end

(* The step-form twin of [Make]: identical instrumentation, with every
   t-operation a step-machine program, so instrumented TMs run on either
   machine backend. Kept a line-by-line mirror of [Make] — when editing one,
   edit both. *)
module Make_step (T : Tm_intf.S_step) = struct
  module Sm = Proc.Step

  let ( let* ) = Sm.bind

  type ctx = {
    state : T.t;
    machine : Machine.t;
    mem : Memory.t;
    next_id : Memory.addr;
    opix : Memory.addr array;
  }

  let init machine ~nobjs =
    let state = T.create machine ~nobjs in
    let next_id = Machine.alloc machine ~name:"runner.next_id" (Value.Int 0) in
    let opix =
      Array.init (Machine.nprocs machine) (fun i ->
          Machine.alloc machine
            ~name:(Printf.sprintf "runner.opix.p%d" i)
            (Value.Int 0))
    in
    { state; machine; mem = Machine.memory machine; next_id; opix }

  let tm_state ctx = ctx.state

  type tx = { pid : int; id : int; inner : T.tx; mutable dead : bool }

  let tx_id tx = tx.id

  let begin_tx ctx ~pid =
    Sm.suspend @@ fun () ->
    let id = Value.to_int (Memory.peek ctx.mem ctx.next_id) in
    Memory.poke ctx.mem ctx.next_id (Value.int_ (id + 1));
    Sm.return { pid; id; inner = T.fresh ctx.state ~pid ~id; dead = false }

  let guard tx = if tx.dead then invalid_arg "Runner: use of dead transaction"

  let fault_abort ctx tx op =
    Sm.suspend @@ fun () ->
    let cell = ctx.opix.(tx.pid) in
    let k = Value.to_int (Memory.peek ctx.mem cell) in
    Memory.poke ctx.mem cell (Value.int_ (k + 1));
    if Machine.abort_due ctx.machine tx.pid ~op_index:k then begin
      tx.dead <- true;
      let* () = Sm.note (History.Tx_inv { pid = tx.pid; tx = tx.id; op }) in
      let* () =
        Sm.note (History.Tx_injected_abort { pid = tx.pid; tx = tx.id })
      in
      let* () =
        Sm.note
          (History.Tx_res { pid = tx.pid; tx = tx.id; op; res = History.RAbort })
      in
      Sm.return true
    end
    else Sm.return false

  let read ctx tx x =
    Sm.suspend @@ fun () ->
    guard tx;
    let* injected = fault_abort ctx tx (History.Read x) in
    if injected then Sm.return (Error `Abort)
    else
      let* () =
        Sm.note
          (History.Tx_inv { pid = tx.pid; tx = tx.id; op = History.Read x })
      in
      let* r = T.read ctx.state tx.inner x in
      match r with
      | Ok v ->
          let* () =
            Sm.note
              (History.Tx_res
                 {
                   pid = tx.pid;
                   tx = tx.id;
                   op = History.Read x;
                   res = History.RVal v;
                 })
          in
          Sm.return (Ok v)
      | Error `Abort ->
          tx.dead <- true;
          let* () =
            Sm.note
              (History.Tx_res
                 {
                   pid = tx.pid;
                   tx = tx.id;
                   op = History.Read x;
                   res = History.RAbort;
                 })
          in
          Sm.return (Error `Abort)

  let write ctx tx x v =
    Sm.suspend @@ fun () ->
    guard tx;
    let* injected = fault_abort ctx tx (History.Write (x, v)) in
    if injected then Sm.return (Error `Abort)
    else
      let* () =
        Sm.note
          (History.Tx_inv { pid = tx.pid; tx = tx.id; op = History.Write (x, v) })
      in
      let* r = T.write ctx.state tx.inner x v in
      match r with
      | Ok () ->
          let* () =
            Sm.note
              (History.Tx_res
                 {
                   pid = tx.pid;
                   tx = tx.id;
                   op = History.Write (x, v);
                   res = History.ROk;
                 })
          in
          Sm.return (Ok ())
      | Error `Abort ->
          tx.dead <- true;
          let* () =
            Sm.note
              (History.Tx_res
                 {
                   pid = tx.pid;
                   tx = tx.id;
                   op = History.Write (x, v);
                   res = History.RAbort;
                 })
          in
          Sm.return (Error `Abort)

  let commit ctx tx =
    Sm.suspend @@ fun () ->
    guard tx;
    let* injected = fault_abort ctx tx History.Try_commit in
    if injected then Sm.return (Error `Abort)
    else
      let* () =
        Sm.note
          (History.Tx_inv { pid = tx.pid; tx = tx.id; op = History.Try_commit })
      in
      let* r = T.try_commit ctx.state tx.inner in
      match r with
      | Ok () ->
          tx.dead <- true;
          let* () =
            Sm.note
              (History.Tx_res
                 {
                   pid = tx.pid;
                   tx = tx.id;
                   op = History.Try_commit;
                   res = History.RCommit;
                 })
          in
          Sm.return (Ok ())
      | Error `Abort ->
          tx.dead <- true;
          let* () =
            Sm.note
              (History.Tx_res
                 {
                   pid = tx.pid;
                   tx = tx.id;
                   op = History.Try_commit;
                   res = History.RAbort;
                 })
          in
          Sm.return (Error `Abort)

  let atomically ctx ~pid ~retries body =
    Sm.suspend @@ fun () ->
    let rec attempt k =
      let* tx = begin_tx ctx ~pid in
      let* r = body tx in
      match r with
      | Ok a -> (
          let* c = commit ctx tx in
          match c with
          | Ok () -> Sm.return (Ok a)
          | Error `Abort ->
              if k < retries then attempt (k + 1) else Sm.return (Error `Abort))
      | Error `Abort ->
          if k < retries then attempt (k + 1) else Sm.return (Error `Abort)
    in
    attempt 0
end

type retry_policy =
  | Immediate
  | Backoff of { base : int; factor : int; cap : int; max_retries : int }

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

type monitor = Monitor_off | Monitor_stream

type monitor_result =
  | Not_monitored
  | Monitor_ok of Opacity_stream.stats
  | Opacity_violation of Opacity_stream.violation
  | Monitor_inconclusive of string

type outcome = {
  machine : Machine.t;
  history : History.t;
  commits : int;
  aborts : int;
  starved : int list;
  out_of_steps : bool;
  monitor : monitor_result;
}

type schedule = Round_robin | Random_sched of int

let validate_policy = function
  | Immediate -> ()
  | Backoff { base; factor; cap; max_retries } ->
      if max_retries < 0 then
        invalid_arg "Runner.run: max_retries must be >= 0";
      if base < 0 || factor < 1 || cap < base then
        invalid_arg "Runner.run: need base >= 0, factor >= 1, cap >= base"

let run (module T : Tm_intf.S) ?(retries = 0) ?(policy = Immediate)
    ?(faults = []) ?livelock_window ?max_steps ?(monitor = Monitor_off)
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
    match monitor with
    | Monitor_off -> None
    | Monitor_stream ->
        let mon = Opacity_stream.create () in
        Ptm_machine.Trace.set_observer (Machine.trace machine)
          (Some (Opacity_stream.on_entry mon));
        Some mon
  in
  let backoff =
    Array.init nprocs (fun i ->
        Machine.alloc machine
          ~name:(Printf.sprintf "runner.backoff.p%d" i)
          (Value.Int 0))
  in
  let det =
    Option.map (fun window -> Livelock.create ~window ~nprocs ()) livelock_window
  in
  let max_retries =
    match policy with
    | Immediate -> retries
    | Backoff { max_retries; _ } -> max_retries
  in
  let delay k =
    match policy with
    | Immediate -> 0
    | Backoff { base; factor; cap; _ } ->
        let rec go d i =
          if i <= 0 || d >= cap then min d cap else go (d * factor) (i - 1)
        in
        go base k
  in
  let commits = ref 0 and aborts = ref 0 in
  let gave_up () =
    match det with Some d -> Livelock.tripped d | None -> false
  in
  let exec_tx pid (spec : Workload.tx_spec) =
    let body tx =
      let rec go = function
        | [] -> Ok ()
        | Workload.R x :: rest -> (
            match R.read ctx tx x with
            | Ok _ -> go rest
            | Error `Abort -> Error `Abort)
        | Workload.W (x, v) :: rest -> (
            match R.write ctx tx x v with
            | Ok () -> go rest
            | Error `Abort -> Error `Abort)
      in
      go spec
    in
    let rec attempt k =
      let tx = R.begin_tx ctx ~pid in
      let result =
        match body tx with Ok () -> R.commit ctx tx | Error `Abort -> Error `Abort
      in
      match result with
      | Ok () ->
          incr commits;
          (match det with Some d -> Livelock.record_commit d pid | None -> ())
      | Error `Abort ->
          incr aborts;
          (match det with Some d -> Livelock.record_abort d pid | None -> ());
          if k < max_retries && not (gave_up ()) then begin
            (* Realize the back-off as machine steps: each waited slot is one
               (trivial) read of this pid's scratch cell, so delays occupy
               schedule positions and rival transactions can run meanwhile. *)
            for _ = 1 to delay k do
              ignore (Proc.read backoff.(pid) : Value.t)
            done;
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
  let monitor =
    match mon with
    | None -> Not_monitored
    | Some m -> (
        Ptm_machine.Trace.set_observer (Machine.trace machine) None;
        match Opacity_stream.verdict m with
        | Opacity_stream.Opaque -> Monitor_ok (Opacity_stream.stats m)
        | Opacity_stream.Violation v -> Opacity_violation v
        | Opacity_stream.Inconclusive msg -> Monitor_inconclusive msg)
  in
  {
    machine;
    history;
    commits = !commits;
    aborts = !aborts;
    starved;
    out_of_steps;
    monitor;
  }
