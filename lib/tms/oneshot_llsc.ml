open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "oneshot-llsc"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = true;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = true;
    }

  type t = { cells : Memory.addr array }

  let create machine ~nobjs =
    {
      cells =
        Machine.alloc_array machine ~name:"oneshot-llsc" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    obj : int P.var;  (* -1 = no object accessed yet *)
    seen : int option P.var;  (* value of the unique load-linked read *)
    wv : int option P.var;
  }

  let fresh _t ~pid:_ ~id:_ =
    { obj = P.var (-1); seen = P.var None; wv = P.var None }

  let restrict tx x =
    let o = P.get tx.obj in
    if o = -1 then P.set tx.obj x
    else if o <> x then
      invalid_arg
        "Oneshot_llsc: transactions may access a single t-object only"

  let read t tx x =
    P.suspend @@ fun () ->
    restrict tx x;
    match P.get tx.wv with
    | Some v -> P.return (Ok v)
    | None -> (
        match P.get tx.seen with
        | Some v -> P.return (Ok v)
        | None ->
            let* c = P.ll t.cells.(x) in
            let v = Value.to_int c in
            P.set tx.seen (Some v);
            P.return (Ok v))

  let write _t tx x v =
    P.suspend @@ fun () ->
    restrict tx x;
    P.set tx.wv (Some v);
    P.return (Ok ())

  let try_commit t tx =
    P.suspend @@ fun () ->
    match P.get tx.wv with
    | None -> P.return (Ok ()) (* read-only: a single load is trivially atomic *)
    | Some v ->
        let x = P.get tx.obj in
        (* A blind write still needs a link for the SC. *)
        let* () =
          if P.get tx.seen = None then P.map ignore (P.ll t.cells.(x))
          else P.return ()
        in
        let* won = P.sc t.cells.(x) (Value.Int v) in
        P.return (if won then Ok () else Error `Abort)
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
