open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "tl2"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = false;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  type t = {
    clock : Memory.addr;
    orecs : Memory.addr array;
    data : Memory.addr array;
  }

  let create machine ~nobjs =
    {
      clock = Machine.alloc machine ~name:"tl2.clock" (Value.Int 0);
      orecs =
        Machine.alloc_array machine ~name:"tl2.orec" nobjs
          (Orec.pack ~ver:0 ~owner:Orec.none);
      data =
        Machine.alloc_array machine ~name:"tl2.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    id : int;
    rv : int P.var;  (* -1 until the first t-operation samples the clock *)
    rset : (int * int) list P.var;  (* obj -> value read (for caching) *)
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

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wbuf) with
    | Some v -> P.return (Ok v)
    | None -> (
        match List.assoc_opt x (P.get tx.rset) with
        | Some v -> P.return (Ok v)
        | None ->
            let* () = ensure_rv t tx in
            let* o = P.read t.orecs.(x) in
            let ver, owner = Orec.unpack o in
            if owner <> Orec.none || ver > P.get tx.rv then
              P.return (Error `Abort)
            else
              let* v = P.read_int t.data.(x) in
              let* o2 = P.read t.orecs.(x) in
              let ver2, owner2 = Orec.unpack o2 in
              if ver2 <> ver || owner2 <> Orec.none then P.return (Error `Abort)
              else begin
                P.set tx.rset ((x, v) :: P.get tx.rset);
                P.return (Ok v)
              end)

  let write t tx x v =
    P.suspend @@ fun () ->
    let* () = ensure_rv t tx in
    P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
    P.return (Ok ())

  let wset tx = List.sort_uniq compare (List.map fst (P.get tx.wbuf))

  let release t held =
    P.iter
      (fun (x, ver) -> P.write t.orecs.(x) (Orec.pack ~ver ~owner:Orec.none))
      held

  let rec acquire t tx held = function
    | [] -> P.return (Ok held)
    | x :: rest ->
        let* o = P.read t.orecs.(x) in
        let ver, owner = Orec.unpack o in
        if owner <> Orec.none || ver > P.get tx.rv then P.return (Error held)
        else
          let* locked =
            P.cas t.orecs.(x)
              ~expected:(Orec.pack ~ver ~owner:Orec.none)
              ~desired:(Orec.pack ~ver ~owner:tx.id)
          in
          if locked then acquire t tx ((x, ver) :: held) rest
          else P.return (Error held)

  let try_commit t tx =
    P.suspend @@ fun () ->
    if P.get tx.wbuf = [] then P.return (Ok ())
      (* read-only: the rv snapshot already validated *)
    else
      let* acquired = acquire t tx [] (wset tx) in
      match acquired with
      | Error held ->
          let* () = release t held in
          P.return (Error `Abort)
      | Ok held ->
          let* c = P.faa t.clock 1 in
          let wv = 1 + c in
          let* rset_ok =
            P.for_all
              (fun (x, _) ->
                if List.mem_assoc x held then P.return true
                else
                  let* o = P.read t.orecs.(x) in
                  let ver, owner = Orec.unpack o in
                  P.return (owner = Orec.none && ver <= P.get tx.rv))
              (P.get tx.rset)
          in
          if not rset_ok then
            let* () = release t held in
            P.return (Error `Abort)
          else
            let* () =
              P.iter
                (fun (x, _) ->
                  match List.assoc_opt x (P.get tx.wbuf) with
                  | Some v -> P.write t.data.(x) (Value.Int v)
                  | None -> P.return ())
                held
            in
            let* () =
              P.iter
                (fun (x, _) ->
                  P.write t.orecs.(x) (Orec.pack ~ver:wv ~owner:Orec.none))
                held
            in
            P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
