type stats = {
  paths : int;
  cut : int;
  pruned : int;
  violations : int;
  first_violation : int list option;
  exhausted : bool;
  replays : int;
  steps : int;
  replay_steps_saved : int;
  fault_branches : int;
}

type mode = Naive | Dpor

let pp_stats ppf s =
  Fmt.pf ppf
    "paths=%d cut=%d pruned=%d violations=%d replays=%d steps=%d%s%s%s"
    s.paths s.cut s.pruned s.violations s.replays s.steps
    (if s.fault_branches > 0 then
       Printf.sprintf " faults=%d" s.fault_branches
     else "")
    (match s.first_violation with
    | None -> ""
    | Some w ->
        Printf.sprintf " witness=[%s]"
          (String.concat ";" (List.map string_of_int w)))
    (if s.exhausted then " exhausted" else "")

let same_search a b =
  a.paths = b.paths && a.cut = b.cut && a.pruned = b.pruned
  && a.violations = b.violations
  && a.first_violation = b.first_violation
  && a.fault_branches = b.fault_branches
  && a.exhausted = b.exhausted

let reduction_ratio ~naive ~reduced =
  float_of_int naive.paths /. float_of_int (max 1 reduced.paths)

(* The search state is deliberately allocation-free: schedules are grow-only
   int arrays, process sets are int bitmasks (hence the [max_procs] bound),
   and pending transitions are packed into ints. The machine's own stepping
   (with the trace sink off) allocates only the re-boxed process state.
   A restorable machine ({!Machine.restorable}) is saved at each branching
   node into a per-depth buffer and restored for every further branch; any
   other machine replays the prefix on a pooled machine drawn from a free
   list instead of building a fresh one. *)

let max_procs = 62

(* Internal: unwinds the current worker's search when the shared path budget
   trips; caught at the worker top, never escapes [run]. *)
exception Budget

(* ------------------------------------------------------------------ *)
(* Packed pending transitions.                                         *)
(*                                                                     *)
(* The transition a runnable process will take when next scheduled is   *)
(* either the memory event it is poised to apply — encoded as           *)
(* [addr * 2 + trivial?] — or a voluntary pause (no base object),       *)
(* encoded as -1 (see {!Machine.packed_pend}). Dependence of two        *)
(* transitions, derived exactly as the events would be recorded: same   *)
(* process (program order), or two accesses to the same base object of  *)
(* which at least one is nontrivial. Pauses commute with every other    *)
(* process's step; trivial primitives (Read, Ll) on the same address    *)
(* commute with each other. Conditional primitives (Cas, Sc, Tas) are   *)
(* classified nontrivial even when they would fail — a sound            *)
(* over-approximation.                                                  *)
(* ------------------------------------------------------------------ *)

let pause_pend = -1

(* ------------------------------------------------------------------ *)
(* Schedule actions.                                                   *)
(*                                                                     *)
(* With fault budgets off, every schedule position is a bare pid        *)
(* (tag 0) and the encoding is the identity — budget-0 searches are     *)
(* bit-identical to searches without the fault layer. A fault budget    *)
(* turns fault placements into extra branch points whose schedule       *)
(* positions carry a tag: [pid lor (tag lsl 6)] (pids fit 6 bits,       *)
(* [max_procs] = 62). Fault actions consume a schedule position (and    *)
(* count against [max_steps], keeping depth == position) but execute    *)
(* no memory event.                                                     *)
(* ------------------------------------------------------------------ *)

let act_crash pid = pid lor (1 lsl 6)
let act_stall pid = pid lor (2 lsl 6)
let act_pid a = a land 63
let act_tag a = a lsr 6

let dependent p ep q eq =
  p = q
  || (ep >= 0 && eq >= 0
     && ep lsr 1 = eq lsr 1
     && not (ep land 1 = 1 && eq land 1 = 1))

(* Bitmask of runnable pids; assumes nprocs <= max_procs (checked once in
   [run]). *)
let live_mask m =
  let n = Machine.nprocs m in
  let mask = ref 0 in
  for pid = 0 to n - 1 do
    if Machine.is_runnable m pid then mask := !mask lor (1 lsl pid)
  done;
  !mask

let lowest_bit mask =
  let b = mask land -mask in
  (* b is a power of two; return its index *)
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  go 0 b

(* Schedules: grow-only arrays used as a stack along the current path. *)

type sched = { mutable s_a : int array; mutable s_n : int }

let sched_make () = { s_a = Array.make 64 0; s_n = 0 }

let sched_grow sc cap =
  if cap > Array.length sc.s_a then begin
    let a = Array.make (max cap (2 * Array.length sc.s_a)) 0 in
    Array.blit sc.s_a 0 a 0 sc.s_n;
    sc.s_a <- a
  end

let sched_reset sc prefix =
  sc.s_n <- 0;
  sched_grow sc (Array.length prefix);
  Array.blit prefix 0 sc.s_a 0 (Array.length prefix);
  sc.s_n <- Array.length prefix

let sched_push sc pid =
  sched_grow sc (sc.s_n + 1);
  sc.s_a.(sc.s_n) <- pid;
  sc.s_n <- sc.s_n + 1

let sched_pop sc = sc.s_n <- sc.s_n - 1
let sched_to_list sc = Array.to_list (Array.sub sc.s_a 0 sc.s_n)

(* Per-worker tallies; merged deterministically across domains. *)
type acc = {
  mutable a_paths : int;
  mutable a_cut : int;
  mutable a_pruned : int;
  mutable a_violations : int;
  mutable a_first : int list option;
  mutable a_replays : int;
  mutable a_steps : int;
  mutable a_faults : int;  (* fault branches taken (injections performed) *)
  mutable a_ticks : int;  (* leaves since the last progress callback *)
}

type ctx = {
  mk : unit -> Machine.t;
  final : Machine.t -> bool;
  max_steps : int;
  max_paths : int;
  pool : bool;  (* [mk] does not pre-step the machine, so replays may restart
                   pooled ones *)
  restore : bool;
      (* the machines are restorable: a search saves and restores nodes
         instead of replaying prefixes *)
  crashes : int;  (* crash-injection budget per path *)
  stalls : int;  (* stall-injection budget per path *)
  stall_steps : int;  (* slots a stall branch parks its pid for *)
  spent : int Atomic.t;  (* paths + cut counted so far, across all domains *)
  tripped : bool Atomic.t;
  progress : (stats -> unit) option;
  progress_every : int;
}

let fresh_acc () =
  {
    a_paths = 0;
    a_cut = 0;
    a_pruned = 0;
    a_violations = 0;
    a_first = None;
    a_replays = 0;
    a_steps = 0;
    a_faults = 0;
    a_ticks = 0;
  }

let stats_of ctx acc =
  {
    paths = acc.a_paths;
    cut = acc.a_cut;
    pruned = acc.a_pruned;
    violations = acc.a_violations;
    first_violation = acc.a_first;
    exhausted = Atomic.get ctx.tripped;
    replays = acc.a_replays;
    steps = acc.a_steps;
    replay_steps_saved = 0;
    fault_branches = acc.a_faults;
  }

(* ------------------------------------------------------------------ *)
(* Per-worker search state: the machine free list, the saved nodes of a *)
(* restoring search, and the per-address access index for the DPOR      *)
(* conflict scan.                                                       *)
(*                                                                      *)
(* The access index keeps, per base object, a stack of the executed     *)
(* memory transitions on the current path, packed as                    *)
(* [(depth lsl 7) lor (pid lsl 1) lor trivial] (pid < 62 fits 6 bits).  *)
(* The Flanagan–Godefroid conflict scan — deepest active node whose     *)
(* executed transition is dependent with (q, eq) — becomes a walk of    *)
(* one short per-address stack instead of the whole path.               *)
(* ------------------------------------------------------------------ *)

type pstate = {
  mutable free : Machine.t list;
  mutable ai_stk : int array array;
  mutable ai_len : int array;
  mutable saves : Machine.saved array;  (* restoring: the node per depth *)
}

let pstate_make () =
  { free = []; ai_stk = [||]; ai_len = [||]; saves = [||] }

let pool_put ctx st m = if ctx.pool then st.free <- m :: st.free

(* A finished path's machine goes back to the pool, except in a restoring
   search, where it is the machine every open node restores. *)
let release ctx st m = if not ctx.restore then pool_put ctx st m

(* Save the node at [depth] of a restoring search, growing the per-depth
   buffers on first use. Once the node's last branch returns, [done_node]
   drops the buffer's hold on the node's program closures, which would
   otherwise stay reachable until a later path saves at this depth. *)
let save_node st m depth =
  let n = Array.length st.saves in
  if depth >= n then
    st.saves <-
      Array.init
        (max (depth + 1) (2 * n))
        (fun i -> if i < n then st.saves.(i) else Machine.saved_make m);
  Machine.save m (Array.unsafe_get st.saves depth)

let done_node st depth = Machine.forget (Array.unsafe_get st.saves depth)

let ai_pack depth pid trivial = (depth lsl 7) lor (pid lsl 1) lor trivial

let ai_push st addr packed =
  if addr >= Array.length st.ai_len then begin
    let n = max 16 (max (2 * Array.length st.ai_len) (addr + 1)) in
    let stk = Array.make n [||] in
    let len = Array.make n 0 in
    Array.blit st.ai_stk 0 stk 0 (Array.length st.ai_stk);
    Array.blit st.ai_len 0 len 0 (Array.length st.ai_len);
    st.ai_stk <- stk;
    st.ai_len <- len
  end;
  let stk = st.ai_stk.(addr) in
  let l = st.ai_len.(addr) in
  let stk =
    if l >= Array.length stk then begin
      let fresh = Array.make (max 8 (2 * Array.length stk)) 0 in
      Array.blit stk 0 fresh 0 l;
      st.ai_stk.(addr) <- fresh;
      fresh
    end
    else stk
  in
  stk.(l) <- packed;
  st.ai_len.(addr) <- l + 1

let ai_pop st addr = st.ai_len.(addr) <- st.ai_len.(addr) - 1
let ai_clear st = Array.fill st.ai_len 0 (Array.length st.ai_len) 0

(* Deepest executed transition on [addr] dependent with (q, eq): skip q's
   own entries and — when eq is trivial — other trivial entries. Returns
   the packed entry, or -1 if the whole path commutes with (q, eq). *)
let ai_query st addr q eq_trivial =
  if addr >= Array.length st.ai_len then -1
  else begin
    let stk = st.ai_stk.(addr) in
    let rec go i =
      if i < 0 then -1
      else
        let e = Array.unsafe_get stk i in
        if (e lsr 1) land 0x3f = q || (eq_trivial && e land 1 = 1) then
          go (i - 1)
        else e
    in
    go (st.ai_len.(addr) - 1)
  end

(* Charge one leaf (complete or cut path) against the shared budget. The
   bound is strict: exactly [max_paths] leaves are admitted, then the search
   unwinds and [run] returns whatever was tallied, with [exhausted] set. *)
let leaf ctx acc =
  if Atomic.fetch_and_add ctx.spent 1 >= ctx.max_paths then begin
    Atomic.set ctx.tripped true;
    raise Budget
  end;
  acc.a_ticks <- acc.a_ticks + 1;
  match ctx.progress with
  | Some f when acc.a_ticks >= ctx.progress_every ->
      acc.a_ticks <- 0;
      f (stats_of ctx acc)
  | _ -> ()

let note_violation acc sched =
  acc.a_violations <- acc.a_violations + 1;
  if acc.a_first = None then acc.a_first <- Some (sched_to_list sched)

let step1 acc m pid =
  acc.a_steps <- acc.a_steps + 1;
  ignore (Machine.unsafe_step m pid : Machine.step_result)

(* Produce a machine positioned after the current schedule prefix: restart
   a pooled machine in place when one is free (else build one with [mk])
   and re-execute the prefix. Fault actions in the prefix are re-injected:
   they execute no memory event but re-emit their trace note, keeping seq
   numbers aligned. *)
let replay ctx acc st sched =
  acc.a_replays <- acc.a_replays + 1;
  let m =
    match st.free with
    | m :: rest ->
        st.free <- rest;
        Machine.restart m;
        m
    | [] -> ctx.mk ()
  in
  for i = 0 to sched.s_n - 1 do
    let a = sched.s_a.(i) in
    match act_tag a with
    | 0 -> step1 acc m a
    | 1 -> Machine.inject_crash m (act_pid a)
    | _ -> Machine.inject_stall m (act_pid a) ~steps:ctx.stall_steps
  done;
  m

(* The machine for one branch of the node at [depth], whose own machine is
   [m]; [fresh] holds until a branch of the node has run on [m]. A
   restoring search runs every branch on [m], restored to the node's saved
   state unless fresh. A replaying search runs the one branch it reserves
   for [m] ([in_place], while fresh) on [m] and replays the prefix on a
   pooled machine for every other. *)
let branch_machine ctx acc st sched m depth fresh ~in_place =
  if ctx.restore then begin
    if !fresh then fresh := false
    else Machine.restore m (Array.unsafe_get st.saves depth);
    m
  end
  else if in_place && !fresh then begin
    fresh := false;
    m
  end
  else replay ctx acc st sched

(* Enumerate the fault branches at the node at [depth]: one crash branch
   per live pid while the crash budget lasts, one stall branch per live
   not-already-stalled pid while the stall budget lasts. Each branch gets
   its machine from [branch_machine] (a replay, or the restored node),
   performs the injection (a schedule position that executes no memory
   event) and explores the subtree via [go] with the budget decremented.
   Skipped entirely at budget 0, which keeps budget-0 searches
   bit-identical to the fault-free explorer. [m] is the node's machine,
   probed for stall state before any branch runs on it. *)
let fault_branches ctx acc st m sched depth fresh ~live ~cr ~sl
    ~(go : Machine.t -> cr:int -> sl:int -> unit) =
  let n = Machine.nprocs m in
  let stalled = ref 0 in
  for q = 0 to n - 1 do
    if live land (1 lsl q) <> 0 && Machine.stalled m q then
      stalled := !stalled lor (1 lsl q)
  done;
  let stalled = !stalled in
  if cr > 0 then
    for q = 0 to n - 1 do
      if live land (1 lsl q) <> 0 then begin
        let m' = branch_machine ctx acc st sched m depth fresh ~in_place:false in
        Machine.inject_crash m' q;
        acc.a_faults <- acc.a_faults + 1;
        sched_push sched (act_crash q);
        go m' ~cr:(cr - 1) ~sl;
        sched_pop sched
      end
    done;
  if sl > 0 then
    for q = 0 to n - 1 do
      if live land (1 lsl q) <> 0 && stalled land (1 lsl q) = 0 then begin
        let m' = branch_machine ctx acc st sched m depth fresh ~in_place:false in
        Machine.inject_stall m' q ~steps:ctx.stall_steps;
        acc.a_faults <- acc.a_faults + 1;
        sched_push sched (act_stall q);
        go m' ~cr ~sl:(sl - 1);
        sched_pop sched
      end
    done

(* ------------------------------------------------------------------ *)
(* Naive exhaustive DFS (the reference the reduction is validated      *)
(* against). Replaying, the head child of each node reuses the current *)
(* machine in place (fibers are one-shot, but one branch needs no      *)
(* replay) and every other sibling replays its prefix on a pooled      *)
(* machine — one replay per extra branch, not per node. Restoring, the *)
(* node is saved and every branch after the first restores it.         *)
(* Either way siblings are visited before the head branch, so both     *)
(* searches produce their leaves in one order.                         *)
(* ------------------------------------------------------------------ *)

let rec naive_dfs ctx acc st m sched depth ~cr ~sl =
  if Machine.any_crashed m then begin
    leaf ctx acc;
    acc.a_paths <- acc.a_paths + 1;
    note_violation acc sched;
    release ctx st m
  end
  else begin
    let live = live_mask m in
    if live = 0 then begin
      leaf ctx acc;
      acc.a_paths <- acc.a_paths + 1;
      if not (ctx.final m) then note_violation acc sched;
      release ctx st m
    end
    else if depth >= ctx.max_steps then begin
      leaf ctx acc;
      acc.a_cut <- acc.a_cut + 1;
      release ctx st m
    end
    else begin
      let saved =
        ctx.restore && (cr > 0 || sl > 0 || live land (live - 1) <> 0)
      in
      if saved then save_node st m depth;
      let fresh = ref true in
      if cr > 0 || sl > 0 then
        fault_branches ctx acc st m sched depth fresh ~live ~cr ~sl
          ~go:(fun m' ~cr ~sl -> naive_dfs ctx acc st m' sched (depth + 1) ~cr ~sl);
      let n = Machine.nprocs m in
      let head = lowest_bit live in
      for pid = head + 1 to n - 1 do
        if live land (1 lsl pid) <> 0 then begin
          let m' = branch_machine ctx acc st sched m depth fresh ~in_place:false in
          step1 acc m' pid;
          sched_push sched pid;
          naive_dfs ctx acc st m' sched (depth + 1) ~cr ~sl;
          sched_pop sched
        end
      done;
      let m = branch_machine ctx acc st sched m depth fresh ~in_place:true in
      if saved then done_node st depth;
      step1 acc m head;
      sched_push sched head;
      naive_dfs ctx acc st m sched (depth + 1) ~cr ~sl;
      sched_pop sched
    end
  end

(* ------------------------------------------------------------------ *)
(* DPOR: sleep sets + dynamically computed persistent (backtrack) sets *)
(* in the style of Flanagan–Godefroid. The transition taken from each  *)
(* node on the current path goes on the per-address access index; when *)
(* a new transition is about to execute, the deepest earlier step it   *)
(* depends on (found via that index) gets a backtrack point, forcing the *)
(* conflicting orders to be explored. Sleep sets carry already-covered *)
(* transitions into sibling subtrees and prune them until a dependent  *)
(* step wakes them.                                                    *)
(*                                                                     *)
(* All process sets are bitmasks. A sleep set stores only pids: the    *)
(* sleeping process has not been scheduled since it went to sleep, so  *)
(* its poised transition is unchanged and can be re-read from the      *)
(* current node's pending array — the assoc-list of (pid, transition)  *)
(* pairs of PR 1 carried exactly this information.                     *)
(* ------------------------------------------------------------------ *)

type node = {
  mutable n_enabled : int;
  mutable n_backtrack : int;
  mutable n_done : int;
  mutable n_sleep : int;
  n_pend : int array;  (* packed pending transition per enabled pid *)
}

let node_make nprocs =
  {
    n_enabled = 0;
    n_backtrack = 0;
    n_done = 0;
    n_sleep = 0;
    n_pend = Array.make nprocs pause_pend;
  }

let stack_make ctx nprocs =
  Array.init (ctx.max_steps + 1) (fun _ -> node_make nprocs)

(* Conflict analysis for one enabled transition (q, eq): find the most
   recent step of another process it depends on and add a backtrack point
   there, so the reversed order is explored too. If the transition's
   process was not enabled at that node, conservatively back-track every
   enabled process. A pause (eq < 0) depends on no other process's step,
   so it never scans. *)
(* Sleeping transitions dependent on the executed (p, ep) wake up: return
   the subset of [sleep] whose pending transition (read from [pend]) is
   still independent. Top-level and accumulator-passing so the hot loops
   call it without allocating a closure per node. *)
let rec sleep_filter_go sleep p ep pend kept =
  if sleep = 0 then kept
  else begin
    let s = lowest_bit sleep in
    let kept =
      if dependent p ep s (Array.unsafe_get pend s) then kept
      else kept lor (1 lsl s)
    in
    sleep_filter_go (sleep land (sleep - 1)) p ep pend kept
  end

let sleep_filter sleep p ep pend = sleep_filter_go sleep p ep pend 0

let scan_add st stack nprocs q eq =
  if eq >= 0 then begin
    let e = ai_query st (eq lsr 1) q (eq land 1 = 1) in
    if e >= 0 then begin
      let a = stack.(e lsr 7) in
      let add r =
        if a.n_backtrack land (1 lsl r) = 0 && a.n_done land (1 lsl r) = 0
        then a.n_backtrack <- a.n_backtrack lor (1 lsl r)
      in
      if a.n_enabled land (1 lsl q) <> 0 then add q
      else
        for r = 0 to nprocs - 1 do
          if a.n_enabled land (1 lsl r) <> 0 then add r
        done
    end
  end

let rec dpor_dfs ctx acc st stack m sched depth sleep ~cr ~sl =
  if Machine.any_crashed m then begin
    leaf ctx acc;
    acc.a_paths <- acc.a_paths + 1;
    note_violation acc sched;
    release ctx st m
  end
  else begin
    let live = live_mask m in
    if live = 0 then begin
      leaf ctx acc;
      acc.a_paths <- acc.a_paths + 1;
      if not (ctx.final m) then note_violation acc sched;
      release ctx st m
    end
    else if depth >= ctx.max_steps then begin
      leaf ctx acc;
      acc.a_cut <- acc.a_cut + 1;
      release ctx st m
    end
    else begin
      (* The node's record is filled from [m] before any branch runs on
         it. The fault subtrees below neither read nor write it: their
         nodes sit deeper, and the access index holds no entry at this
         depth until a step branch pushes one. *)
      let n = Machine.nprocs m in
      let nd = stack.(depth) in
      nd.n_enabled <- live;
      nd.n_backtrack <- 0;
      nd.n_done <- 0;
      nd.n_sleep <- sleep;
      for pid = 0 to n - 1 do
        nd.n_pend.(pid) <-
          (if live land (1 lsl pid) <> 0 then Machine.packed_pend m pid
           else pause_pend)
      done;
      for q = 0 to n - 1 do
        if live land (1 lsl q) <> 0 then scan_add st stack n q nd.n_pend.(q)
      done;
      let awake = live land lnot nd.n_sleep in
      let saved =
        ctx.restore && (cr > 0 || sl > 0 || awake land (awake - 1) <> 0)
      in
      if saved then save_node st m depth;
      let fresh = ref true in
      (* Fault branches are orthogonal to the reduction: they are added at
         every branching node while budget lasts, are never slept or
         backtracked, and their subtrees start with an empty sleep set
         (the coverage argument behind sleep sets does not extend across
         an injection). The step branches below are reduced exactly as in
         the fault-free search. *)
      if cr > 0 || sl > 0 then
        fault_branches ctx acc st m sched depth fresh ~live ~cr ~sl
          ~go:(fun m' ~cr ~sl ->
            dpor_dfs ctx acc st stack m' sched (depth + 1) 0 ~cr ~sl);
      if awake = 0 then begin
        (* sleep-blocked: every enabled transition is covered by an
           already-explored sibling subtree *)
        acc.a_pruned <- acc.a_pruned + 1;
        release ctx st m
      end
      else begin
        nd.n_backtrack <- 1 lsl lowest_bit awake;
        let rec branches () =
          let cand = nd.n_backtrack land lnot nd.n_done in
          if cand <> 0 then begin
            let q = lowest_bit cand in
            nd.n_done <- nd.n_done lor (1 lsl q);
            if nd.n_sleep land (1 lsl q) <> 0 then begin
              (* covered by the subtree that put [q] to sleep *)
              acc.a_pruned <- acc.a_pruned + 1;
              branches ()
            end
            else begin
              let eq = nd.n_pend.(q) in
              (* sleeping transitions dependent on (q, eq) wake up: only
                 the independent ones carry into the child *)
              let child_sleep = sleep_filter nd.n_sleep q eq nd.n_pend in
              let m' =
                branch_machine ctx acc st sched m depth fresh ~in_place:true
              in
              step1 acc m' q;
              sched_push sched q;
              if eq >= 0 then
                ai_push st (eq lsr 1) (ai_pack depth q (eq land 1));
              dpor_dfs ctx acc st stack m' sched (depth + 1) child_sleep
                ~cr ~sl;
              if eq >= 0 then ai_pop st (eq lsr 1);
              sched_pop sched;
              nd.n_sleep <- nd.n_sleep lor (1 lsl q);
              branches ()
            end
          end
        in
        branches ()
      end;
      if saved then done_node st depth
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver: sequential, or a frontier work queue across domains.        *)
(* ------------------------------------------------------------------ *)

let empty_stats =
  {
    paths = 0;
    cut = 0;
    pruned = 0;
    violations = 0;
    first_violation = None;
    exhausted = false;
    replays = 0;
    steps = 0;
    replay_steps_saved = 0;
    fault_branches = 0;
  }

let merge_stats s r =
  {
    paths = s.paths + r.paths;
    cut = s.cut + r.cut;
    pruned = s.pruned + r.pruned;
    violations = s.violations + r.violations;
    first_violation =
      (match s.first_violation with
      | Some _ -> s.first_violation
      | None -> r.first_violation);
    exhausted = s.exhausted || r.exhausted;
    replays = s.replays + r.replays;
    steps = s.steps + r.steps;
    replay_steps_saved = 0;
    fault_branches = s.fault_branches + r.fault_branches;
  }

(* A subtree task for the parallel driver: the schedule prefix reaching the
   node, plus (Dpor) the pids asleep on arrival. Sleeping processes are
   unscheduled along the whole prefix, so their poised transitions are
   recomputed from the replayed machine. Fault actions embedded in the
   prefix carry their budget use with them. *)
type task = { t_prefix : int array; t_sleep : int }

let prefix_faults prefix =
  let c = ref 0 and s = ref 0 in
  Array.iter
    (fun a ->
      match act_tag a with 1 -> incr c | 2 -> incr s | _ -> ())
    prefix;
  (!c, !s)

(* ------------------------------------------------------------------ *)
(* Checkpoint journal: a line-oriented on-disk log of frontier progress *)
(* that survives [kill -9]. The header fingerprints the exploration     *)
(* configuration, the task lines record the (deterministic) frontier,   *)
(* and one done-line is appended (and flushed) per finished task. A     *)
(* resumed run re-expands the frontier, verifies it matches the journal *)
(* byte for byte, seeds the matched done tasks' stats from the log, and *)
(* explores only the rest. Each done line ends with a "." marker so a   *)
(* write truncated mid-line by a crash is simply ignored.               *)
(* ------------------------------------------------------------------ *)

type journal = { j_oc : out_channel; j_lock : Mutex.t }

let mode_name = function Naive -> "naive" | Dpor -> "dpor"

let journal_header ~mode ~max_steps ~max_paths ~crashes ~stalls ~stall_steps
    ~nprocs ~ntasks =
  Printf.sprintf "ptm-ckpt 5 %s %d %d %d %d %d %d %d" (mode_name mode)
    max_steps max_paths crashes stalls stall_steps nprocs ntasks

let task_line t =
  let b = Buffer.create 32 in
  Buffer.add_string b (Printf.sprintf "t %d" t.t_sleep);
  Array.iter (fun a -> Buffer.add_string b (Printf.sprintf " %d" a)) t.t_prefix;
  Buffer.contents b

(* the witness schedule: "-" none, "e" empty, else comma-separated *)
let done_line i (s : stats) =
  let w =
    match s.first_violation with
    | None -> "-"
    | Some [] -> "e"
    | Some sched -> String.concat "," (List.map string_of_int sched)
  in
  Printf.sprintf "d %d %d %d %d %d %d %d %d %d %s ." i s.paths s.cut
    s.pruned s.violations s.replays s.steps s.fault_branches
    (if s.exhausted then 1 else 0)
    w

(* A complete done line, or None (anything else, including lines cut short
   by a crash mid-write). *)
let parse_done line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "d"; i; paths; cut; pruned; violations; replays; steps; faults; ex; w;
      "." ] -> (
      try
        let witness =
          match w with
          | "-" -> None
          | "e" -> Some []
          | _ -> Some (List.map int_of_string (String.split_on_char ',' w))
        in
        Some
          ( int_of_string i,
            {
              paths = int_of_string paths;
              cut = int_of_string cut;
              pruned = int_of_string pruned;
              violations = int_of_string violations;
              first_violation = witness;
              exhausted = String.equal ex "1";
              replays = int_of_string replays;
              steps = int_of_string steps;
              replay_steps_saved = 0;
              fault_branches = int_of_string faults;
            } )
      with _ -> None)
  | _ -> None

let journal_mismatch () =
  invalid_arg
    "Explore.run: the checkpoint journal records a different exploration \
     (other program, configuration, or version) — delete the file or drop \
     resume"

(* Load a journal for resumption. [Some dones] if the header and task
   section are complete and match this exploration; [None] if the file is
   absent or was truncated before the task section finished (start fresh).
   A complete header or task line that does NOT match raises: resuming a
   different exploration silently would corrupt both. *)
let journal_load path ~header ~tasks =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    match List.rev !lines with
    | [] -> None
    | h :: rest ->
        if not (String.equal h header) then
          if String.length h >= 8 && String.equal (String.sub h 0 8) "ptm-ckpt"
          then journal_mismatch ()
          else None
        else
          let nt = Array.length tasks in
          if List.length rest < nt then None
          else begin
            List.iteri
              (fun i l ->
                if i < nt && not (String.equal l (task_line tasks.(i))) then
                  journal_mismatch ())
              rest;
            let dones =
              List.filteri (fun i _ -> i >= nt) rest
              |> List.filter_map parse_done
            in
            Some dones
          end
  end

(* Expand one frontier node into its children, tallying any leaf it turns
   out to be into [acc]. In Dpor mode every enabled transition becomes a
   branch — a sound superset of any persistent set — and branch [i] starts
   with the still-independent earlier branches asleep, exactly the PR 1
   root-split rule applied at every frontier node. *)
let expand_node ctx acc st mode task' =
  let sched = sched_make () in
  sched_reset sched task'.t_prefix;
  let m = replay ctx acc st sched in
  if Machine.any_crashed m then begin
    leaf ctx acc;
    acc.a_paths <- acc.a_paths + 1;
    note_violation acc sched;
    pool_put ctx st m;
    []
  end
  else begin
    let live = live_mask m in
    if live = 0 then begin
      leaf ctx acc;
      acc.a_paths <- acc.a_paths + 1;
      if not (ctx.final m) then note_violation acc sched;
      pool_put ctx st m;
      []
    end
    else if Array.length task'.t_prefix >= ctx.max_steps then begin
      leaf ctx acc;
      acc.a_cut <- acc.a_cut + 1;
      pool_put ctx st m;
      []
    end
    else begin
      let n = Machine.nprocs m in
      let child q sleep =
        let prefix = Array.make (Array.length task'.t_prefix + 1) q in
        Array.blit task'.t_prefix 0 prefix 0 (Array.length task'.t_prefix);
        { t_prefix = prefix; t_sleep = sleep }
      in
      (* Fault branches become frontier tasks of their own, mirroring the
         DFS: budget permitting, a crash child per live pid and a stall
         child per live not-already-stalled pid, each starting with an
         empty sleep set. *)
      let used_cr, used_sl = prefix_faults task'.t_prefix in
      let fault_children = ref [] in
      (* appending a fault action to a prefix is the frontier analog of the
         DFS's injection, so it is what counts towards [fault_branches]
         (the worker's later replays of the prefix re-inject for free) *)
      if ctx.stalls - used_sl > 0 then
        for q = n - 1 downto 0 do
          if live land (1 lsl q) <> 0 && not (Machine.stalled m q) then begin
            acc.a_faults <- acc.a_faults + 1;
            fault_children := child (act_stall q) 0 :: !fault_children
          end
        done;
      if ctx.crashes - used_cr > 0 then
        for q = n - 1 downto 0 do
          if live land (1 lsl q) <> 0 then begin
            acc.a_faults <- acc.a_faults + 1;
            fault_children := child (act_crash q) 0 :: !fault_children
          end
        done;
      let children =
        match mode with
        | Naive ->
            let children = ref [] in
            for q = n - 1 downto 0 do
              if live land (1 lsl q) <> 0 then
                children := child q 0 :: !children
            done;
            !children
        | Dpor ->
            let pend = Array.make n pause_pend in
            for q = 0 to n - 1 do
              if live land (1 lsl q) <> 0 then
                pend.(q) <- Machine.packed_pend m q
            done;
            let sleep = ref task'.t_sleep in
            let children = ref [] in
            for q = 0 to n - 1 do
              if live land (1 lsl q) <> 0 then
                if !sleep land (1 lsl q) <> 0 then
                  (* covered by an earlier sibling's subtree *)
                  acc.a_pruned <- acc.a_pruned + 1
                else begin
                  let child_sleep = sleep_filter !sleep q pend.(q) pend in
                  children := child q child_sleep :: !children;
                  sleep := !sleep lor (1 lsl q)
                end
            done;
            List.rev !children
      in
      pool_put ctx st m;
      !fault_children @ children
    end
  end

let run ~mk ?(final = fun _ -> true) ?(max_steps = 60)
    ?(max_paths = 1_000_000) ?(mode = Naive) ?(domains = 1) ?(crashes = 0)
    ?(stalls = 0) ?(stall_steps = 3) ?checkpoint_file ?(resume = false)
    ?progress ?(progress_every = 10_000) () =
  if crashes < 0 || stalls < 0 then
    invalid_arg "Explore.run: fault budgets must be >= 0";
  if stall_steps < 1 then
    invalid_arg "Explore.run: stall_steps must be >= 1";
  if resume && checkpoint_file = None then
    invalid_arg "Explore.run: resume requires checkpoint_file";
  let root = mk () in
  let nprocs = Machine.nprocs root in
  if nprocs > max_procs then
    invalid_arg
      (Printf.sprintf
         "Explore.run: %d processes, but the bitmask sleep/backtrack sets \
          support at most %d"
         nprocs max_procs);
  (* Pooling replays via [Machine.restart], which returns to the true
     initial state; if [mk] pre-steps the machine, a restarted machine
     would diverge from a fresh one, so fall back to building machines. *)
  let pre_stepped =
    let r = ref false in
    for pid = 0 to nprocs - 1 do
      if Machine.steps_of root pid > 0 then r := true
    done;
    !r
  in
  let ctx =
    {
      mk;
      final;
      max_steps;
      max_paths;
      pool = not pre_stepped;
      restore = Machine.restorable root;
      crashes;
      stalls;
      stall_steps;
      spent = Atomic.make 0;
      tripped = Atomic.make false;
      progress;
      progress_every;
    }
  in
  (* A restoring search logs its programs' var writes on the domain's trail
     for exactly its own duration: the trail is stopped, and emptied, when
     the search returns or unwinds. *)
  let explore_sub acc st stack m sched depth sleep0 ~cr ~sl =
    let search () =
      match mode with
      | Naive -> naive_dfs ctx acc st m sched depth ~cr ~sl
      | Dpor -> dpor_dfs ctx acc st stack m sched depth sleep0 ~cr ~sl
    in
    if ctx.restore then begin
      Proc.Trail.start ();
      Fun.protect ~finally:Proc.Trail.stop search
    end
    else search ()
  in
  let journal_on = checkpoint_file <> None in
  if (domains <= 1 && not journal_on) || max_steps <= 0
     || Machine.any_crashed root
  then begin
    let acc = fresh_acc () in
    let st = pstate_make () in
    let stack =
      match mode with Naive -> [||] | Dpor -> stack_make ctx nprocs
    in
    (try
       explore_sub acc st stack root (sched_make ()) 0 0 ~cr:crashes
         ~sl:stalls
     with Budget -> ());
    stats_of ctx acc
  end
  else begin
    (* Frontier work queue: expand the schedule tree level by level until
       it holds enough subtree tasks to keep every domain busy (or the
       frontier stops growing), then let workers pull tasks from a shared
       counter. Which domain runs which task is racy, but each task's
       tallies are a deterministic function of (mk, prefix), so the
       task-ordered merge below is deterministic — except when the budget
       trips, where the cross-domain interleaving decides which leaves
       were admitted. Leaves met during expansion are tallied directly. *)
    (* With a journal the frontier must be a deterministic function of the
       exploration alone — resume re-expands and validates it — so its size
       target cannot depend on how many domains this particular run has. *)
    let target = if journal_on then 64 else 4 * domains in
    let depth_cap = min max_steps 12 in
    let base = fresh_acc () in
    let seed_st = pstate_make () in
    let budget_in_seed = ref false in
    let tasks = ref [ { t_prefix = [||]; t_sleep = 0 } ] in
    (try
       let depth = ref 0 in
       let stop = ref false in
       while (not !stop) && List.length !tasks < target && !depth < depth_cap
       do
         let expanded =
           List.concat_map (fun t -> expand_node ctx base seed_st mode t) !tasks
         in
         (* an empty expansion means every frontier node was a leaf *)
         if expanded = [] then stop := true;
         tasks := expanded;
         incr depth
       done
     with Budget -> budget_in_seed := true);
    let tasks = Array.of_list !tasks in
    let nt = Array.length tasks in
    if !budget_in_seed || nt = 0 then stats_of ctx base
    else begin
      let results = Array.make nt empty_stats in
      (* the tasks whose tallies were restored from the journal *)
      let finished = Array.make nt false in
      let journal =
        match checkpoint_file with
        | None -> None
        | Some path ->
            let header =
              journal_header ~mode ~max_steps ~max_paths ~crashes ~stalls
                ~stall_steps ~nprocs ~ntasks:nt
            in
            let prior =
              if resume then journal_load path ~header ~tasks else None
            in
            (match prior with
            | Some dones ->
                List.iter
                  (fun (i, (s : stats)) ->
                    if i >= 0 && i < nt && not finished.(i) then begin
                      finished.(i) <- true;
                      results.(i) <- s;
                      (* restore the finished tasks' leaves into the budget
                         so a resumed run admits exactly the leaves an
                         uninterrupted one would *)
                      ignore
                        (Atomic.fetch_and_add ctx.spent (s.paths + s.cut)
                          : int);
                      if s.exhausted then Atomic.set ctx.tripped true
                    end)
                  dones
            | None -> ());
            let oc =
              match prior with
              | Some _ -> open_out_gen [ Open_append; Open_wronly ] 0o644 path
              | None ->
                  let oc = open_out path in
                  output_string oc (header ^ "\n");
                  Array.iter
                    (fun t -> output_string oc (task_line t ^ "\n"))
                    tasks;
                  flush oc;
                  oc
            in
            Some { j_oc = oc; j_lock = Mutex.create () }
      in
      let next = Atomic.make 0 in
      let nw = min domains nt in
      let worker () =
        let sched = sched_make () in
        let st = pstate_make () in
        let stack =
          match mode with Naive -> [||] | Dpor -> stack_make ctx nprocs
        in
        let exec i =
          let t = tasks.(i) in
          let acc = fresh_acc () in
          (try
             (* a Budget unwind leaves the previous task's access index
                unpopped *)
             ai_clear st;
             sched_reset sched t.t_prefix;
             let used_cr, used_sl = prefix_faults t.t_prefix in
             let m = replay ctx acc st sched in
             explore_sub acc st stack m sched (Array.length t.t_prefix)
               t.t_sleep ~cr:(ctx.crashes - used_cr)
               ~sl:(ctx.stalls - used_sl);
             (* a restoring search ran the whole task on [m] *)
             if ctx.restore then pool_put ctx st m
           with Budget -> ());
          results.(i) <- stats_of ctx acc;
          match journal with
          | None -> ()
          | Some j ->
              Mutex.lock j.j_lock;
              output_string j.j_oc (done_line i results.(i) ^ "\n");
              flush j.j_oc;
              Mutex.unlock j.j_lock
        in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < nt then begin
            if not finished.(i) then exec i;
            loop ()
          end
        in
        loop ()
      in
      let spawned = Array.init (nw - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join spawned;
      (match journal with None -> () | Some j -> close_out j.j_oc);
      Array.fold_left merge_stats (stats_of ctx base) results
    end
  end
