open Ptm_machine

(* Each t-object is a single base object Pair (Int version, Int value). *)

let pack ~ver ~v = Value.Pair (Value.Int ver, Value.Int v)

let unpack c =
  let a, b = Value.to_pair c in
  (Value.to_int a, Value.to_int b)

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "oneshot-cas"

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
        Machine.alloc_array machine ~name:"oneshot" nobjs
          (pack ~ver:0 ~v:Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    obj : int P.var;  (* -1 = no object accessed yet *)
    seen : (int * int) option P.var;  (* (ver, value) of the unique read *)
    wv : int option P.var;
  }

  let fresh _t ~pid:_ ~id:_ =
    { obj = P.var (-1); seen = P.var None; wv = P.var None }

  let restrict tx x =
    let o = P.get tx.obj in
    if o = -1 then P.set tx.obj x
    else if o <> x then
      invalid_arg "Oneshot: transactions may access a single t-object only"

  let read t tx x =
    P.suspend @@ fun () ->
    restrict tx x;
    match P.get tx.wv with
    | Some v -> P.return (Ok v)
    | None -> (
        match P.get tx.seen with
        | Some (_, v) -> P.return (Ok v)
        | None ->
            let* c = P.read t.cells.(x) in
            let ver, v = unpack c in
            P.set tx.seen (Some (ver, v));
            P.return (Ok v))

  let write _t tx x v =
    P.suspend @@ fun () ->
    restrict tx x;
    P.set tx.wv (Some v);
    P.return (Ok ())

  let try_commit t tx =
    P.suspend @@ fun () ->
    match P.get tx.wv with
    | None -> P.return (Ok ()) (* read-only: a single read is trivially atomic *)
    | Some v ->
        let x = P.get tx.obj in
        let* ver, cur =
          match P.get tx.seen with
          | Some s -> P.return s
          | None -> P.map unpack (P.read t.cells.(x)) (* blind write *)
        in
        let* won =
          P.cas t.cells.(x)
            ~expected:(pack ~ver ~v:cur)
            ~desired:(pack ~ver:(ver + 1) ~v)
        in
        P.return (if won then Ok () else Error `Abort)
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
