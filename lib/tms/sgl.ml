open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "sgl"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = false;
      invisible_reads = false;
      weak_invisible_reads = false;
      progressive = true;
      strongly_progressive = true;
    }

  type t = { lock : Memory.addr; data : Memory.addr array }

  let create machine ~nobjs =
    {
      lock = Machine.alloc machine ~name:"sgl.lock" (Value.Bool false);
      data =
        Machine.alloc_array machine ~name:"sgl.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = { holding : bool P.var }

  let fresh _t ~pid:_ ~id:_ = { holding = P.var false }

  (* Test-and-test-and-set acquisition: spin on the cached value, attempt
     the TAS only when the lock looks free. *)
  let acquire t tx =
    P.suspend @@ fun () ->
    if P.get tx.holding then P.return ()
    else
      let rec go () =
        let* held = P.read_bool t.lock in
        if held then go ()
        else
          let* taken = P.tas t.lock in
          if taken then go () else P.return ()
      in
      let* () = go () in
      P.set tx.holding true;
      P.return ()

  let read t tx x =
    P.suspend @@ fun () ->
    let* () = acquire t tx in
    let* v = P.read_int t.data.(x) in
    P.return (Ok v)

  let write t tx x v =
    P.suspend @@ fun () ->
    let* () = acquire t tx in
    let* () = P.write t.data.(x) (Value.Int v) in
    P.return (Ok ())

  let try_commit t tx =
    P.suspend @@ fun () ->
    if P.get tx.holding then begin
      let* () = P.write t.lock (Value.Bool false) in
      P.set tx.holding false;
      P.return (Ok ())
    end
    else P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
