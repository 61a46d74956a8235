open Ptm_machine
module IMap = Map.Make (Int)
module Itbl = Hashtbl.Make (Int)

(* Validity intervals are (lo, hi) inclusive snapshot-index ranges, ascending
   and disjoint; [open_hi] as hi marks the (unique, topmost) interval that is
   still valid at the latest snapshot and keeps extending as snapshots are
   appended, until a conflicting commit closes it. *)
let open_hi = max_int

type event =
  | Inv of { pid : int; tx : int; op : History.op }
  | Res of { pid : int; tx : int; op : History.op; res : History.res }

let pp_event ppf = function
  | Inv { pid; tx; op } -> Fmt.pf ppf "p%d T%d inv %a" pid tx History.pp_op op
  | Res { pid; tx; op; res } ->
      Fmt.pf ppf "p%d T%d res %a -> %a" pid tx History.pp_op op History.pp_res
        res

type violation = { v_seq : int; v_event : string; v_reason : string }

type verdict = Opaque | Violation of violation | Inconclusive of string

let pp_violation ppf v =
  Fmt.pf ppf "at seq %d, %s: %s" v.v_seq v.v_event v.v_reason

let pp_verdict ppf = function
  | Opaque -> Fmt.string ppf "opaque"
  | Violation v -> Fmt.pf ppf "NOT opaque: %a" pp_violation v
  | Inconclusive msg -> Fmt.pf ppf "inconclusive: %s" msg

let is_ok = function Opaque -> true | _ -> false

type stats = {
  events : int;
  snapshots : int;
  max_frontier : int;
  max_live : int;
  resident : int;
  max_resident : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "%d events, %d snapshots, frontier <= %d, live <= %d, resident %d (peak \
     %d)"
    s.events s.snapshots s.max_frontier s.max_live s.resident s.max_resident

(* ------------------------------------------------------------------ *)
(* Automaton states                                                    *)
(* ------------------------------------------------------------------ *)

type live = {
  l_lo : int;  (* snapshot index at the transaction's first event *)
  l_reads : int IMap.t;  (* externally read values: object -> value *)
  l_valid : (int * int) list;
      (* snapshots where the whole read set is valid *)
  l_wbuf : int IMap.t;  (* buffered writes: object -> latest value *)
  l_pending : bool;  (* tryC invoked, response not yet seen *)
}

type state = {
  nver : int;  (* latest snapshot index; 0 = initial memory *)
  hist : (int * int) list IMap.t;
      (* object -> (version, value), newest first; value holds from that
         version until the next entry's; below the oldest entry the object
         still held [Tm_intf.init_value] (pruning preserves this reading for
         every query above the watermark) *)
  live : live IMap.t;
  applied : int list;
      (* pending try-commits whose internal commit point this state has
         already linearized (speculatively: the response is still out) *)
}

let init_state = { nver = 0; hist = IMap.empty; live = IMap.empty; applied = [] }

let value_at st x s =
  match IMap.find_opt x st.hist with
  | None -> Tm_intf.init_value
  | Some l ->
      let rec go = function
        | [] -> Tm_intf.init_value
        | (ver, v) :: rest -> if ver <= s then v else go rest
      in
      go l

(* Ascending intervals of [lo0, st.nver] where object [x] holds [v]; the top
   interval is open iff it reaches the latest snapshot. *)
let value_intervals st ~lo0 x v =
  let entries = match IMap.find_opt x st.hist with None -> [] | Some l -> l in
  let acc = ref [] in
  let upper = ref st.nver in
  let add lo hi value =
    if value = v then begin
      let lo = max lo lo0 in
      if lo <= hi then
        acc := (lo, if hi = st.nver then open_hi else hi) :: !acc
    end
  in
  List.iter
    (fun (ver, value) ->
      add ver !upper value;
      upper := ver - 1)
    entries;
  if !upper >= 0 then add 0 !upper Tm_intf.init_value;
  !acc

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (la, ha) :: ta, (lb, hb) :: tb ->
        let lo = max la lb and hi = min ha hb in
        let acc = if lo <= hi then (lo, hi) :: acc else acc in
        if ha <= hb then go ta b acc else go a tb acc
  in
  go a b []

let top_open valid =
  match valid with
  | [] -> false
  | _ -> snd (List.nth valid (List.length valid - 1)) = open_hi

let close_top at valid =
  List.map (fun (lo, hi) -> if hi = open_hi then (lo, at) else (lo, hi)) valid

let rec prune_list wm = function
  | [] -> []
  | (ver, v) :: rest ->
      if ver > wm then (ver, v) :: prune_list wm rest else [ (ver, v) ]

(* Linearize the internal commit point of pending updating transaction [id]
   now: its read set must be valid at the latest snapshot. Appends the new
   snapshot, moves [id] to [applied], and re-derives every other live
   transaction's validity (close an open top on a value conflict; re-open on
   a snapshot that restores the whole read set). *)
let apply_commit st id =
  match IMap.find_opt id st.live with
  | None -> None
  | Some l ->
      if
        (not l.l_pending) || IMap.is_empty l.l_wbuf || not (top_open l.l_valid)
      then None
      else begin
        let nver = st.nver + 1 in
        let live = IMap.remove id st.live in
        let wm = IMap.fold (fun _ u m -> min m u.l_lo) live nver in
        let hist =
          IMap.fold
            (fun x v h ->
              let prev =
                match IMap.find_opt x h with None -> [] | Some e -> e
              in
              IMap.add x (prune_list wm ((nver, v) :: prev)) h)
            l.l_wbuf st.hist
        in
        let st' = { nver; hist; live; applied = id :: st.applied } in
        let touches u = IMap.exists (fun x _ -> IMap.mem x u.l_reads) l.l_wbuf in
        let conflicts u =
          IMap.exists
            (fun x v ->
              match IMap.find_opt x u.l_reads with
              | Some rv -> rv <> v
              | None -> false)
            l.l_wbuf
        in
        let live =
          IMap.map
            (fun u ->
              if top_open u.l_valid then
                if conflicts u then
                  { u with l_valid = close_top st.nver u.l_valid }
                else u
              else if
                touches u
                && IMap.for_all (fun x rv -> value_at st' x nver = rv) u.l_reads
              then { u with l_valid = u.l_valid @ [ (nver, open_hi) ] }
              else u)
            live
        in
        Some { st' with live }
      end

(* Canonical key for deduplication: maps listified, applied order erased
   (once linearized, only membership matters — the snapshots already carry
   the order), and version numbers renumbered canonically. The checker only
   ever compares versions ordinally, so the concrete integers a commit
   order happened to assign are not observable: below the live watermark
   every object's sole surviving entry acts as the base snapshot (rank 0),
   and versions at or above it keep only their rank. Without this, commits
   with disjoint write sets and overlapping commit windows would yield one
   frontier state per application order forever (the global version counter
   leaks the order) — with it, they collapse as soon as the orders stop
   being distinguishable. *)
let key st =
  let wm = IMap.fold (fun _ u m -> min m u.l_lo) st.live st.nver in
  let hist = IMap.map (prune_list wm) st.hist in
  let vs = ref [] in
  let note v = if v >= wm then vs := v :: !vs in
  note st.nver;
  IMap.iter (fun _ l -> List.iter (fun (v, _) -> note v) l) hist;
  IMap.iter
    (fun _ u ->
      note u.l_lo;
      List.iter
        (fun (lo, hi) ->
          note lo;
          if hi <> open_hi then note hi)
        u.l_valid)
    st.live;
  let ranked = List.sort_uniq compare !vs in
  let tbl = Hashtbl.create (2 * List.length ranked) in
  List.iteri (fun i v -> Hashtbl.add tbl v (i + 1)) ranked;
  let r v = if v >= wm then Hashtbl.find tbl v else 0 in
  ( r st.nver,
    IMap.bindings (IMap.map (List.map (fun (v, x) -> (r v, x))) hist),
    List.map
      (fun (id, l) ->
        ( id,
          r l.l_lo,
          IMap.bindings l.l_reads,
          List.map
            (fun (lo, hi) -> (r lo, if hi = open_hi then open_hi else r hi))
            l.l_valid,
          IMap.bindings l.l_wbuf,
          l.l_pending ))
      (IMap.bindings st.live),
    List.sort compare st.applied )

let dedup = function
  | ([] | [ _ ]) as sts -> sts
  | sts ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun st ->
          let k = key st in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        sts

let has_expandable ~except st =
  IMap.exists
    (fun id l -> id <> except && l.l_pending && not (IMap.is_empty l.l_wbuf))
    st.live

exception Expansion_cap

(* Closure of [sts] under speculative commit linearization (every order, all
   subsets) of pending updating transactions other than [except]. It grows
   exponentially with the number of overlapping pending commits, so it stops
   with [Expansion_cap] rather than hold more than [limit] states. *)
let expand ~limit ~except sts =
  if not (List.exists (has_expandable ~except) sts) then sts
  else begin
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let rec go st =
      let k = key st in
      if not (Hashtbl.mem seen k) then begin
        if Hashtbl.length seen >= limit then raise Expansion_cap;
        Hashtbl.add seen k ();
        out := st :: !out;
        IMap.iter
          (fun id l ->
            if id <> except && l.l_pending && not (IMap.is_empty l.l_wbuf) then
              match apply_commit st id with Some st' -> go st' | None -> ())
          st.live
      end
    in
    List.iter go sts;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

(* The transaction ids seen so far, as disjoint inclusive intervals keyed
   by their low end, with neighbours coalesced. Ids are handed out in
   ascending order, so however long the history runs the set holds one
   interval plus one per run of unseen ids below the highest seen one. *)
module Ids = struct
  type t = { mutable ivs : int IMap.t; mutable count : int }

  let create () = { ivs = IMap.empty; count = 0 }
  let below s x = IMap.find_last_opt (fun lo -> lo <= x) s.ivs

  let mem s x =
    match below s x with Some (_, hi) -> x <= hi | None -> false

  (* [x] must not be in [s] yet. *)
  let add s x =
    let left =
      match below s x with Some (lo, hi) when hi = x - 1 -> Some lo | _ -> None
    in
    let right = if x = max_int then None else IMap.find_opt (x + 1) s.ivs in
    match (left, right) with
    | Some lo, Some hi ->
        s.ivs <- IMap.add lo hi (IMap.remove (x + 1) s.ivs);
        s.count <- s.count - 1
    | Some lo, None -> s.ivs <- IMap.add lo x s.ivs
    | None, Some hi -> s.ivs <- IMap.add x hi (IMap.remove (x + 1) s.ivs)
    | None, None ->
        s.ivs <- IMap.add x x s.ivs;
        s.count <- s.count + 1
end

type t = {
  cap : int;
  mutable frontier : state list;
  mutable latched : verdict option;
  mutable events : int;
  outstanding : (int * History.op) Itbl.t;  (* pid -> pending inv *)
  seen : Ids.t;  (* tx ids ever seen *)
  mutable snapshots : int;
  mutable peak_frontier : int;
  mutable peak_live : int;
  mutable resident : int;
  mutable peak_resident : int;
}

let create ?(max_frontier = 256) () =
  if max_frontier < 1 then
    invalid_arg "Opacity_stream.create: max_frontier must be >= 1";
  {
    cap = max_frontier;
    frontier = [ init_state ];
    latched = None;
    events = 0;
    outstanding = Itbl.create 8;
    seen = Ids.create ();
    snapshots = 0;
    peak_frontier = 1;
    peak_live = 0;
    resident = 1;
    peak_resident = 1;
  }

let resident_of st =
  IMap.fold (fun _ l acc -> acc + List.length l) st.hist 0
  + IMap.cardinal st.live

let sample_resident t =
  let r =
    List.fold_left
      (fun acc st -> acc + resident_of st)
      (t.seen.Ids.count + Itbl.length t.outstanding)
      t.frontier
  in
  t.resident <- r;
  if r > t.peak_resident then t.peak_resident <- r

let fail t ~seq ev reason =
  t.latched <-
    Some
      (Violation
         { v_seq = seq; v_event = Fmt.str "%a" pp_event ev; v_reason = reason })

let step_read st tx x v =
  match IMap.find_opt tx st.live with
  | None -> None
  | Some l -> (
      match IMap.find_opt x l.l_wbuf with
      | Some w -> if w = v then Some st else None
      | None ->
          let nv = inter l.l_valid (value_intervals st ~lo0:l.l_lo x v) in
          if nv = [] then None
          else
            Some
              {
                st with
                live =
                  IMap.add tx
                    { l with l_reads = IMap.add x v l.l_reads; l_valid = nv }
                    st.live;
              })

let remove_applied id = List.filter (fun x -> x <> id)

(* Every state of a frontier holds a started, unfinished transaction either
   live or applied, and a finished one in neither, so any one state tells
   them apart. *)
let in_flight st tx = IMap.mem tx st.live || List.mem tx st.applied

let op_equal a b =
  match (a, b) with
  | History.Read x, History.Read y -> Int.equal x y
  | History.Write (x, v), History.Write (y, w) -> Int.equal x y && Int.equal v w
  | History.Try_commit, History.Try_commit -> true
  | _ -> false

(* The bound on one linearization closure. The event keeps only the
   closure's states that pass it, so a closure can outgrow the frontier cap
   on histories whose frontier stays under it: at one cap, three cells of
   the quick E17/E18 baseline that decide opaque end inconclusive, at four
   none does. *)
let expansion_limit t = 4 * t.cap

let process t ~seq ev =
  let limit = expansion_limit t in
  match ev with
  | Inv { pid; tx; op } ->
      let fresh =
        match t.frontier with st :: _ -> not (in_flight st tx) | [] -> true
      in
      if fresh && Ids.mem t.seen tx then
        fail t ~seq ev "invocation on a completed transaction"
      else if Itbl.mem t.outstanding pid then
        fail t ~seq ev
          "process invoked with an operation still pending (dropped \
           response?)"
      else begin
        Itbl.replace t.outstanding pid (tx, op);
        if fresh then begin
          Ids.add t.seen tx;
          t.frontier <-
            List.map
              (fun st ->
                {
                  st with
                  live =
                    IMap.add tx
                      {
                        l_lo = st.nver;
                        l_reads = IMap.empty;
                        l_valid = [ (st.nver, open_hi) ];
                        l_wbuf = IMap.empty;
                        l_pending = false;
                      }
                      st.live;
                })
              t.frontier
        end;
        match op with
        | History.Try_commit ->
            t.frontier <-
              List.map
                (fun st ->
                  match IMap.find_opt tx st.live with
                  | None -> st
                  | Some l ->
                      {
                        st with
                        live = IMap.add tx { l with l_pending = true } st.live;
                      })
                t.frontier
        | _ -> ()
      end
  | Res { pid; tx; op; res } -> (
      let inv_ok =
        match Itbl.find_opt t.outstanding pid with
        | Some (tx', op') when Int.equal tx' tx && op_equal op' op ->
            Itbl.remove t.outstanding pid;
            true
        | Some _ ->
            fail t ~seq ev "response does not match the pending invocation";
            false
        | None ->
            fail t ~seq ev "response without a pending invocation";
            false
      in
      if inv_ok then
        match (op, res) with
        | History.Read x, History.RVal v ->
            let results =
              List.concat_map
                (fun st ->
                  match step_read st tx x v with
                  | Some st' -> [ st' ]
                  | None ->
                      (* only consistent if some pending commits linearize
                         first: branch over them *)
                      List.filter_map
                        (fun st' -> step_read st' tx x v)
                        (expand ~limit ~except:tx [ st ]))
                t.frontier
            in
            if results = [] then
              fail t ~seq ev "value is not in any reachable snapshot"
            else t.frontier <- dedup results
        | History.Write (x, v), History.ROk ->
            let results =
              List.filter_map
                (fun st ->
                  match IMap.find_opt tx st.live with
                  | None -> None
                  | Some l ->
                      Some
                        {
                          st with
                          live =
                            IMap.add tx
                              { l with l_wbuf = IMap.add x v l.l_wbuf }
                              st.live;
                        })
                t.frontier
            in
            if results = [] then
              fail t ~seq ev "write by a transaction that is not live"
            else t.frontier <- results
        | History.Try_commit, History.RCommit ->
            (* mandatory branching: concurrent pending commits may linearize
               in either order inside their overlapping windows *)
            let candidates = expand ~limit ~except:tx t.frontier in
            let results =
              List.filter_map
                (fun st ->
                  if List.mem tx st.applied then
                    Some { st with applied = remove_applied tx st.applied }
                  else
                    match IMap.find_opt tx st.live with
                    | None -> None
                    | Some l ->
                        if IMap.is_empty l.l_wbuf then
                          if l.l_valid <> [] then
                            Some { st with live = IMap.remove tx st.live }
                          else None
                        else (
                          match apply_commit st tx with
                          | Some st' ->
                              Some
                                {
                                  st' with
                                  applied = remove_applied tx st'.applied;
                                }
                          | None -> None))
                candidates
            in
            if results = [] then
              fail t ~seq ev
                "read set invalid at every possible commit point"
            else t.frontier <- dedup results
        | _, History.RAbort ->
            let results =
              List.filter_map
                (fun st ->
                  if List.mem tx st.applied then None
                  else Some { st with live = IMap.remove tx st.live })
                t.frontier
            in
            if results = [] then
              fail t ~seq ev
                "aborted transaction's writes were already observed"
            else t.frontier <- results
        | _ -> fail t ~seq ev "malformed response for this operation")

let on_event t ?seq ev =
  match t.latched with
  | Some _ -> ()
  | None ->
      let seq = match seq with Some s -> s | None -> t.events in
      t.events <- t.events + 1;
      (try process t ~seq ev
       with Expansion_cap ->
         t.latched <-
           Some
             (Inconclusive
                (Printf.sprintf
                   "commit linearizations exceeded %d states (4 x the \
                    frontier cap) at seq %d"
                   (expansion_limit t) seq)));
      (match t.latched with
      | Some _ -> t.frontier <- []
      | None ->
          let n = List.length t.frontier in
          if n > t.cap then begin
            t.latched <-
              Some
                (Inconclusive
                   (Printf.sprintf
                      "frontier exceeded %d states at seq %d (pathological \
                       commit-window overlap)"
                      t.cap seq));
            t.frontier <- []
          end
          else begin
            if n > t.peak_frontier then t.peak_frontier <- n;
            match t.frontier with
            | st :: _ ->
                if st.nver > t.snapshots then t.snapshots <- st.nver;
                let lv = IMap.cardinal st.live in
                if lv > t.peak_live then t.peak_live <- lv
            | [] -> ()
          end);
      if t.events land 255 = 0 then sample_resident t

let on_entry t entry =
  match entry with
  | Trace.Note { seq; pid; note } -> (
      match note with
      | History.Tx_inv { tx; op; _ } -> on_event t ~seq (Inv { pid; tx; op })
      | History.Tx_res { tx; op; res; _ } ->
          on_event t ~seq (Res { pid; tx; op; res })
      | _ -> ())
  | Trace.Mem _ -> ()

let verdict t =
  match t.latched with
  | Some v -> v
  | None ->
      (* Finalization: transactions cut off mid-operation complete as
         aborted (their writes were never linearized), forever-pending
         try-commits complete as committed in states that linearized them
         and aborted elsewhere — every surviving frontier state is a witness
         completion, so a non-empty frontier decides. *)
      if t.frontier = [] then
        Violation
          { v_seq = -1; v_event = "(end)"; v_reason = "empty frontier" }
      else Opaque

let stats t =
  sample_resident t;
  {
    events = t.events;
    snapshots = t.snapshots;
    max_frontier = t.peak_frontier;
    max_live = t.peak_live;
    resident = t.resident;
    max_resident = t.peak_resident;
  }

let check_entries ?max_frontier entries =
  let t = create ?max_frontier () in
  List.iter (on_entry t) entries;
  (verdict t, stats t)

let check_trace ?max_frontier trace =
  let t = create ?max_frontier () in
  Trace.iter trace (on_entry t);
  (verdict t, stats t)
