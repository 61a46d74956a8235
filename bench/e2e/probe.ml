(* The traced pass's view of a load run, taken from outside: a forwarding
   TM wrapper handed to [Load.run] in place of the TM itself.

   [create] captures the machine, so around every t-operation the wrapper
   reads the serving process's own step count ([Machine.steps_of], a host
   read that adds no machine step) and appends the history event the Runner
   notes at the same point — without faults the two sequences are equal.
   Per-transaction latency runs on Load's clock: the serving process's steps
   from its first attempt's begin to the commit response, retries included;
   the (retries+1)-th consecutive abort of a process closes its transaction
   as failed, exactly where Load gives up on it. *)

open Ptm_machine
open Ptm_core

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 1024 dummy; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

type op_kind = Read | Write | Commit

let kind_ix = function Read -> 0 | Write -> 1 | Commit -> 2

type t = {
  retries : int;
  mutable machine : Machine.t option;
  events : Opacity_stream.event Vec.t;
  latencies : int Vec.t;  (** own steps per committed transaction *)
  commit_at : int Vec.t;  (** event index of each commit response *)
  op_steps : int array;  (** steps inside read / write / try_commit *)
  op_calls : int array;
  mutable start : int array;  (** first-attempt start per pid, -1 when idle *)
  mutable aborts_in_row : int array;
  mutable failed : int;
}

let create ~retries =
  {
    retries;
    machine = None;
    events = Vec.create (Opacity_stream.Inv { pid = 0; tx = 0; op = History.Try_commit });
    latencies = Vec.create 0;
    commit_at = Vec.create 0;
    op_steps = Array.make 3 0;
    op_calls = Array.make 3 0;
    start = [||];
    aborts_in_row = [||];
    failed = 0;
  }

let machine r =
  match r.machine with
  | Some m -> m
  | None -> invalid_arg "Probe: t-operation before create"

let steps r pid = Machine.steps_of (machine r) pid
let committed r = r.commit_at.n

let wrap (module T : Tm_intf.S) r : (module Tm_intf.S) =
  (module struct
    let name = T.name
    let props = T.props

    type t = T.t

    let create m ~nobjs =
      r.machine <- Some m;
      r.start <- Array.make (Machine.nprocs m) (-1);
      r.aborts_in_row <- Array.make (Machine.nprocs m) 0;
      T.create m ~nobjs

    type tx = { inner : T.tx; pid : int; id : int }

    let fresh t ~pid ~id =
      if r.start.(pid) < 0 then r.start.(pid) <- steps r pid;
      { inner = T.fresh t ~pid ~id; pid; id }

    let aborted tx =
      let k = r.aborts_in_row.(tx.pid) + 1 in
      if k > r.retries then begin
        r.failed <- r.failed + 1;
        r.aborts_in_row.(tx.pid) <- 0;
        r.start.(tx.pid) <- -1
      end
      else r.aborts_in_row.(tx.pid) <- k

    (* [call] brackets one t-operation: invocation event, own-step delta,
       response event built from the result by [res]. *)
    let call kind tx op f res =
      Vec.push r.events (Opacity_stream.Inv { pid = tx.pid; tx = tx.id; op });
      let s0 = steps r tx.pid in
      let out = f () in
      let i = kind_ix kind in
      r.op_steps.(i) <- r.op_steps.(i) + (steps r tx.pid - s0);
      r.op_calls.(i) <- r.op_calls.(i) + 1;
      let rv = res out in
      Vec.push r.events (Opacity_stream.Res { pid = tx.pid; tx = tx.id; op; res = rv });
      if rv = History.RAbort then aborted tx;
      out

    let read t tx x =
      call Read tx (History.Read x)
        (fun () -> T.read t tx.inner x)
        (function Ok v -> History.RVal v | Error `Abort -> History.RAbort)

    let write t tx x v =
      call Write tx (History.Write (x, v))
        (fun () -> T.write t tx.inner x v)
        (function Ok () -> History.ROk | Error `Abort -> History.RAbort)

    let try_commit t tx =
      let out =
        call Commit tx History.Try_commit
          (fun () -> T.try_commit t tx.inner)
          (function Ok () -> History.RCommit | Error `Abort -> History.RAbort)
      in
      if out = Ok () then begin
        Vec.push r.latencies (steps r tx.pid - r.start.(tx.pid));
        Vec.push r.commit_at (r.events.n - 1);
        r.start.(tx.pid) <- -1;
        r.aborts_in_row.(tx.pid) <- 0
      end;
      out
  end)

let steps_per r kind =
  let i = kind_ix kind in
  if r.op_calls.(i) = 0 then 0.0
  else float_of_int r.op_steps.(i) /. float_of_int r.op_calls.(i)

(* Replay the captured history into a fresh checker — the monitor's cost on
   this run, attributed without touching the run itself. *)
let replay ?(max_frontier = 256) r =
  let chk = Opacity_stream.create ~max_frontier () in
  for i = 0 to r.events.n - 1 do
    Opacity_stream.on_event chk r.events.a.(i)
  done;
  chk
