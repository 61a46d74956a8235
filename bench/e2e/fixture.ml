(* The explore-dpor fixture: Ofree (step form, Karma) instrumented by
   [Runner.Make_step] over two t-objects x and y. Two writers set
   (x, y) := (v, v) in opposite orders; a reader reads x then y and raises
   when they differ — opacity forbids that even in a transaction about to
   abort, so any such leaf is a violation. Each process makes one attempt;
   84,343 leaves take about half a second.

   Mutable per-run state lives in machine cells (one "committed" flag per
   process, poked without an event), so the explorer's pooled restarts
   replay it. *)

open Ptm_machine
open Ptm_core
module Sm = Proc.Step
module R = Runner.Make_step (Ptm_tms.Ofree.Stepwise)

let max_steps = 200
let max_paths = 10_000_000

type t = {
  workload : Workload.t;
      (** one transaction per process: with 3 processes, two writers set
          (x, y) := (v, v) and (v + 1, v + 1) in opposite orders and the
          last process reads x then y; with 2, one writer and the reader *)
  committed : Memory.addr array;
      (** the flag cells, at the same address in every machine [mk] builds *)
}

(* The transactions run as step programs: every read value of one
   transaction must be equal (each writer writes one value to both
   objects), or the process raises. *)
let build ~trace (w : Workload.t) =
  let nprocs = Array.length w.procs in
  let m = Machine.create ~trace ~engine:Machine.Steps ~nprocs () in
  let ctx = R.init m ~nobjs:w.nobjs in
  let mem = Machine.memory m in
  let committed =
    Array.init nprocs (fun pid ->
        Machine.alloc m ~name:(Printf.sprintf "bench.committed.p%d" pid) (Value.Int 0))
  in
  let body tx ops =
    let rec go seen = function
      | [] -> Sm.return (Ok seen)
      | Workload.R x :: rest ->
          Sm.bind (R.read ctx tx x) (function
            | Error `Abort -> Sm.return (Error `Abort)
            | Ok v -> go (v :: seen) rest)
      | Workload.W (x, v) :: rest ->
          Sm.bind (R.write ctx tx x v) (function
            | Error `Abort -> Sm.return (Error `Abort)
            | Ok () -> go seen rest)
    in
    Sm.map
      (function
        | Ok (v :: vs) when List.exists (( <> ) v) vs ->
            failwith "a transaction read x <> y"
        | Ok _ -> Ok ()
        | Error `Abort -> Error `Abort)
      (go [] ops)
  in
  Array.iteri
    (fun pid txs ->
      List.iter
        (fun ops ->
          Machine.spawn_step m pid
            (Sm.bind (R.atomically ctx ~pid ~retries:0 (fun tx -> body tx ops)) (fun r ->
                 Sm.suspend (fun () ->
                     if r = Ok () then Memory.poke mem committed.(pid) (Value.int_ 1);
                     Sm.return ()))))
        txs)
    w.procs;
  (m, committed)

let make ~nprocs ~seed =
  if nprocs <> 2 && nprocs <> 3 then invalid_arg "Fixture.make: nprocs must be 2 or 3";
  let v = 1 + Random.State.int (Random.State.make [| 0xf1c; seed |]) 1_000_000 in
  let writer v (a, b) = [ [ Workload.W (a, v); Workload.W (b, v) ] ] in
  let workload =
    {
      Workload.nobjs = 2;
      procs =
        Array.init nprocs (fun pid ->
            if pid = nprocs - 1 then [ [ Workload.R 0; Workload.R 1 ] ]
            else if pid = 0 then writer v (0, 1)
            else writer (v + 1) (1, 0));
    }
  in
  { workload; committed = snd (build ~trace:Trace.Off workload) }

let nprocs fx = Array.length fx.workload.procs
let mk fx () = fst (build ~trace:Trace.Off fx.workload)

(* Per-transaction latency over every complete leaf: each process runs one
   transaction and nothing else, so its own step count at the leaf is that
   transaction's latency from first begin to commit response. *)
type tally = { mutable commits : int; hist : int array  (** latency -> count *) }

let tally () = { commits = 0; hist = Array.make (max_steps + 1) 0 }

let counting_final fx tl m =
  let mem = Machine.memory m in
  for pid = 0 to nprocs fx - 1 do
    if Memory.peek mem fx.committed.(pid) = Value.Int 1 then begin
      tl.commits <- tl.commits + 1;
      let s = Machine.steps_of m pid in
      tl.hist.(s) <- tl.hist.(s) + 1
    end
  done;
  true

let explore ?final fx =
  Explore.run ~mk:(mk fx) ?final ~max_steps ~max_paths ~mode:Explore.Dpor
    ~domains:1 ()

(* Per-call machine costs, calibrated on a recorded round-robin schedule of
   the fixture: loops of [restart], [restart] + [step] along the schedule
   and [restart] + [feed] of the logged responses. Each loop runs for at
   least [min_time] seconds; the fastest of three trials is kept. *)
type calibration = { restart_ns : float; step_ns : float; feed_ns : float }

let calibrate ~now ~min_time fx =
  let m = mk fx () in
  let pids = ref [] and resps = ref [] in
  while not (Machine.all_done m) do
    for pid = 0 to nprocs fx - 1 do
      if Machine.is_runnable m pid then begin
        ignore (Machine.step m pid : Machine.step_result);
        pids := pid :: !pids;
        resps := Machine.last_resp m :: !resps
      end
    done
  done;
  let pids = Array.of_list (List.rev !pids)
  and resps = Array.of_list (List.rev !resps) in
  let n = Array.length pids in
  let per_iter body =
    let best = ref infinity in
    for _ = 1 to 3 do
      let iters = ref 0 and t0 = now () in
      while now () -. t0 < min_time do
        body ();
        incr iters
      done;
      best := Float.min !best ((now () -. t0) /. float_of_int !iters)
    done;
    !best
  in
  let restart = per_iter (fun () -> Machine.restart m) in
  let stepped =
    per_iter (fun () ->
        Machine.restart m;
        for i = 0 to n - 1 do
          ignore (Machine.step m pids.(i) : Machine.step_result)
        done)
  in
  let fed =
    per_iter (fun () ->
        Machine.restart m;
        for i = 0 to n - 1 do
          Machine.feed m pids.(i) resps.(i) ~changed:false
        done)
  in
  let per_call t = Float.max 0.0 (t -. restart) *. 1e9 /. float_of_int n in
  { restart_ns = restart *. 1e9; step_ns = per_call stepped; feed_ns = per_call fed }
