open Ptm_machine

(* Each t-object is one base object holding Pair (Int owner, versions) where
   [versions] is a cons-list Pair (Pair (Int ver, Int value), rest), newest
   first, terminated by Unit. Owner -1 = unlocked. *)

let nil = Value.Unit

let cons ~ver ~v rest = Value.Pair (Value.Pair (Value.Int ver, Value.Int v), rest)

let pack ~owner versions = Value.Pair (Value.Int owner, versions)

let unpack cell =
  let owner, versions = Value.to_pair cell in
  (Value.to_int owner, versions)

(* newest version with version <= rv *)
let rec find_version versions rv =
  match versions with
  | Value.Unit -> None
  | Value.Pair (Value.Pair (Value.Int ver, Value.Int v), rest) ->
      if ver <= rv then Some (ver, v) else find_version rest rv
  | _ -> invalid_arg "Mvtm: malformed version list"

let newest versions =
  match versions with
  | Value.Pair (Value.Pair (Value.Int ver, _), _) -> ver
  | Value.Unit -> -1
  | _ -> invalid_arg "Mvtm: malformed version list"

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "mvtm"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = false;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  type t = { clock : Memory.addr; cells : Memory.addr array }

  let create machine ~nobjs =
    {
      clock = Machine.alloc machine ~name:"mvtm.clock" (Value.Int 0);
      cells =
        Machine.alloc_array machine ~name:"mvtm.obj" nobjs
          (pack ~owner:Orec.none
             (cons ~ver:0 ~v:Ptm_core.Tm_intf.init_value nil));
    }

  type tx = {
    id : int;
    rv : int P.var;  (* -1 until the first operation samples the clock *)
    rset : (int * int) list P.var;  (* obj -> value read, for caching *)
    wbuf : (int * int) list P.var;
  }

  let fresh _t ~pid:_ ~id =
    { id; rv = P.var (-1); rset = P.var []; wbuf = P.var [] }

  let ensure_rv t tx =
    if P.get tx.rv >= 0 then P.return ()
    else
      let* c = P.read_int t.clock in
      P.set tx.rv c;
      P.return ()

  (* Read the cell, waiting out a commit in progress (writers hold the lock
     only for their bounded commit phase, so this terminates under any fair
     schedule). *)
  let rec stable_read t tx x =
    let* cell = P.read t.cells.(x) in
    let owner, versions = unpack cell in
    if owner <> Orec.none && owner <> tx.id then stable_read t tx x
    else P.return versions

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wbuf) with
    | Some v -> P.return (Ok v)
    | None -> (
        match List.assoc_opt x (P.get tx.rset) with
        | Some v -> P.return (Ok v)
        | None -> (
            let* () = ensure_rv t tx in
            let* versions = stable_read t tx x in
            match find_version versions (P.get tx.rv) with
            | Some (_, v) ->
                P.set tx.rset ((x, v) :: P.get tx.rset);
                P.return (Ok v)
            | None -> invalid_arg "Mvtm: no version visible at snapshot"))

  let write t tx x v =
    P.suspend @@ fun () ->
    let* () = ensure_rv t tx in
    P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
    P.return (Ok ())

  let wset tx = List.sort_uniq compare (List.map fst (P.get tx.wbuf))

  let release t held =
    P.iter
      (fun (x, versions) ->
        P.write t.cells.(x) (pack ~owner:Orec.none versions))
      held

  (* lock the write set in object order *)
  let rec acquire t tx held = function
    | [] -> P.return (Ok held)
    | x :: rest ->
        let* cell = P.read t.cells.(x) in
        let owner, versions = unpack cell in
        if owner <> Orec.none then P.return (Error held)
        else
          let* locked =
            P.cas t.cells.(x) ~expected:cell
              ~desired:(pack ~owner:tx.id versions)
          in
          if locked then acquire t tx ((x, versions) :: held) rest
          else P.return (Error held)

  let try_commit t tx =
    P.suspend @@ fun () ->
    if P.get tx.wbuf = [] then P.return (Ok ())
      (* read-only: the snapshot was consistent *)
    else
      let* acquired = acquire t tx [] (wset tx) in
      match acquired with
      | Error held ->
          let* () = release t held in
          P.return (Error `Abort)
      | Ok held ->
          (* Draw the write version before validating (as in TL2): a
             conflicting commit that lands after validation then
             necessarily has a version greater than [wv] and serializes
             after us. *)
          let* c = P.faa t.clock 1 in
          let wv = 1 + c in
          (* validate the read set: nothing newer than our snapshot *)
          let* rset_ok =
            P.for_all
              (fun (x, _) ->
                if List.mem_assoc x held then
                  P.return (newest (List.assoc x held) <= P.get tx.rv)
                else
                  let* cell = P.read t.cells.(x) in
                  let owner, versions = unpack cell in
                  P.return (owner = Orec.none && newest versions <= P.get tx.rv))
              (P.get tx.rset)
          in
          if not rset_ok then
            let* () = release t held in
            P.return (Error `Abort)
          else
            let* () =
              P.iter
                (fun (x, versions) ->
                  match List.assoc_opt x (P.get tx.wbuf) with
                  | Some v ->
                      P.write t.cells.(x)
                        (pack ~owner:Orec.none (cons ~ver:wv ~v versions))
                  | None -> P.return ())
                held
            in
            P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
