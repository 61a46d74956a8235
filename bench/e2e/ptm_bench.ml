(* End-to-end benchmark of the ptm simulator: four workloads, untraced
   timing reps plus one traced pass, every metric printed by name with its
   unit, and a correctness gate.

     ptm_bench.exe --workload W --seed N --seconds S --trace 0|1
         one workload for S seconds of timed reps; the last stdout line is
         a JSON object {correct, attempted, failed, metrics} holding the
         end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
     ptm_bench.exe run --seed N [--out FILE]
         all workloads in one process, 15 timed reps each interleaved
         round-robin, then the traced pass; FILE gets the versioned result
         set
     ptm_bench.exe compare A.json B.json
         per (metric, workload): better / same / worse / unresolved under
         the bounds of ./BENCHMARK.json; exits 1 on worse
     ptm_bench.exe smoke [--spec BENCHMARK.json]
         every workload at tiny budgets; checks names, coverage, the gate

   Every mode exits 1 when the correctness gate fails. *)

let now = Work.now

(* Quartiles as Python's statistics.quantiles(data, n=4) computes them
   (the "exclusive" method). *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort compare d;
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type row = {
  workload : string;
  metric : Spec.metric;
  value : float;
  median : float;
  q1 : float;
  q3 : float;
  n : int;
}

let row workload name ?(spread = [||]) value =
  let metric =
    match Spec.find name with
    | Some m -> m
    | None -> invalid_arg ("undeclared metric " ^ name)
  in
  let q1, median, q3 = if spread = [||] then (value, value, value) else quartiles spread in
  { workload; metric; value; median; q1; q3; n = max 1 (Array.length spread) }

let print_row r =
  Printf.printf "%s %s %s %s median=%s q1=%s q3=%s n=%d\n" r.workload r.metric.name
    (Json.num_to_string r.value) r.metric.unit (Json.num_to_string r.median)
    (Json.num_to_string r.q1) (Json.num_to_string r.q3) r.n

(* ------------------------------------------------------------------ *)
(* One workload's session                                               *)
(* ------------------------------------------------------------------ *)

type session = {
  w : Work.t;
  setup : unit -> unit;
  mutable setups : float list;  (** seconds per set-up, one per batch *)
  mutable reps : Work.rep list;  (** timed reps, newest first *)
  mutable reference : Work.outcome option;
  mutable errors : string list;
}

(* One set-up sample ([Work.setup]): a set-up is well under a millisecond,
   so a sample is the mean over a batch of at least 2 ms of them. A batch
   runs before every timed rep, so the samples span the run's host phases
   as the reps do. *)
let setup_batch s =
  let k = ref 0 and t0 = now () in
  while !k = 0 || now () -. t0 < 0.002 do
    s.setup ();
    incr k
  done;
  s.setups <- ((now () -. t0) /. float_of_int !k) :: s.setups

let open_session ~tiny ~seed name =
  let s =
    {
      w = Work.make ~tiny ~seed name;
      setup = (fun () -> ignore (Work.setup ~tiny ~seed name : Work.t));
      setups = [];
      reps = [];
      reference = None;
      errors = [];
    }
  in
  setup_batch s;
  s

let fail s e = if not (List.mem e s.errors) then s.errors <- s.errors @ [ e ]

let check_rep s (r : Work.rep) =
  List.iter (fail s) (Work.check_outcome s.w r.outcome);
  match s.reference with
  | None -> s.reference <- Some r.outcome
  | Some o ->
      if Work.counters o <> Work.counters r.outcome then
        fail s (s.w.name ^ ": deterministic counters differ between reps")

let warm_up s = check_rep s (Work.bare s.w)

let timed_rep s =
  setup_batch s;
  let r = Work.bare s.w in
  check_rep s r;
  s.reps <- r :: s.reps

type result = {
  e2e : row list;
  layers : row list;
  attempted : int;
  failed : int;
}

let finish ?calib s =
  let name = s.w.name in
  let reps = Array.of_list (List.rev s.reps) in
  let t = Work.traced s.w in
  (match s.reference with
  | Some reference -> List.iter (fail s) (Work.check_traced s.w ~reference t)
  | None -> fail s (name ^ ": no untraced rep"));
  let walls = Array.map (fun (r : Work.rep) -> r.wall) reps in
  (* Host slowdowns come in phases of seconds to minutes and only ever
     slow a rep down, so the fastest rep is the steadiest estimate of the
     work's cost; median and quartiles are printed beside it. *)
  let best_wall = Array.fold_left Float.min infinity walls in
  let _, med_wall, _ = quartiles walls in
  let commits = float_of_int t.commits in
  let mib words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let heaps = Array.map (fun (r : Work.rep) -> mib r.heap_peak_words) reps in
  let _, heap_med, _ = quartiles heaps in
  let setups = Array.of_list s.setups in
  let _, setup_med, _ = quartiles setups in
  let lat = t.latencies in
  let nlat = Array.length lat in
  let lat_row metric p =
    { (row name metric (float_of_int (Work.percentile lat p))) with n = nlat }
  in
  let e2e =
    [
      row name "setup_s" ~spread:setups setup_med;
      row name "verify_s" ~spread:walls best_wall;
      row name "tx_per_s"
        ~spread:(Array.map (fun w -> commits /. w) walls)
        (commits /. best_wall);
      lat_row "commit_p50_steps" 0.50;
      lat_row "commit_p99_steps" 0.99;
      row name "heap_peak_mb" ~spread:heaps heap_med;
    ]
  in
  let layers =
    match calib with
    | None -> []
    | Some calib ->
        List.map
          (fun (k, v) -> row name k v)
          (Work.layers s.w ~bare_wall:med_wall ~reps:(Array.to_list reps) ~calib t)
  in
  let attempted, failed =
    Array.fold_left
      (fun (a, f) (r : Work.rep) ->
        let a', f' = Work.attempted_failed r.outcome in
        (a + a', f + f'))
      (0, 0) reps
  in
  if t.commits = 0 then fail s (name ^ ": nothing committed");
  { e2e; layers; attempted; failed }

let calibrate ~tiny ~seed =
  Fixture.calibrate ~now ~min_time:(if tiny then 0.005 else 0.05)
    (Fixture.make ~nprocs:3 ~seed)

let report_errors sessions =
  List.iter (fun s -> List.iter (Printf.eprintf "FAIL %s\n") s.errors) sessions;
  List.for_all (fun s -> s.errors = []) sessions

(* ------------------------------------------------------------------ *)
(* Single-workload mode: one workload for a fixed time                  *)
(* ------------------------------------------------------------------ *)

let measure ~workload ~seed ~seconds ~trace =
  let s = open_session ~tiny:false ~seed workload in
  warm_up s;
  let t0 = now () in
  while List.length s.reps < 3 || now () -. t0 < seconds do
    timed_rep s
  done;
  let calib = if trace then Some (calibrate ~tiny:false ~seed) else None in
  let res = finish ?calib s in
  let rows = if trace then res.layers else res.e2e in
  List.iter print_row rows;
  let correct = report_errors [ s ] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int res.attempted));
            ("failed", Json.Num (float_of_int res.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun r ->
                     ( r.metric.name,
                       Json.Obj
                         [ ("value", Json.Num r.value); ("unit", Json.Str r.metric.unit) ] ))
                   rows) );
          ]));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* run: every workload, interleaved                                     *)
(* ------------------------------------------------------------------ *)

(* The commit being measured, read from the checkout's git metadata when
   there is any. *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          try
            let ic = open_in ".git/packed-refs" in
            Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                let rec go () =
                  match String.split_on_char ' ' (input_line ic) with
                  | [ sha; name ] when name = r -> sha
                  | _ -> go ()
                in
                go ())
          with Sys_error _ | End_of_file -> "unknown"))
  | Some sha -> sha
  | None -> "unknown"

let rows_json ~seed ~correct rows =
  Json.Obj
    [
      ("schema", Json.Num 1.0);
      ("seed", Json.Num (float_of_int seed));
      ("commit", Json.Str (commit ()));
      ("correct", Json.Bool correct);
      ( "metrics",
        Json.List
          (List.map
             (fun (m : Spec.metric) ->
               Json.Obj
                 [
                   ("name", Json.Str m.name);
                   ("kind", Json.Str (Spec.kind_name m.kind));
                   ("unit", Json.Str m.unit);
                   ("better", Json.Str (Spec.better_name m.better));
                   ("workloads", Json.List (List.map (fun w -> Json.Str w) Spec.workloads));
                   ("moves", match m.moves with Some s -> Json.Str s | None -> Json.Null);
                 ])
             Spec.metrics) );
      ( "results",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("workload", Json.Str r.workload);
                   ("metric", Json.Str r.metric.name);
                   ("kind", Json.Str (Spec.kind_name r.metric.kind));
                   ("unit", Json.Str r.metric.unit);
                   ("value", Json.Num r.value);
                   ("median", Json.Num r.median);
                   ("q1", Json.Num r.q1);
                   ("q3", Json.Num r.q3);
                   ("n", Json.Num (float_of_int r.n));
                 ])
             rows) );
    ]

let run_all ~tiny ~seed ~reps =
  let sessions = List.map (open_session ~tiny ~seed) Spec.workloads in
  List.iter warm_up sessions;
  for _ = 1 to reps do
    List.iter timed_rep sessions
  done;
  let calib = calibrate ~tiny ~seed in
  let results = List.map (finish ~calib) sessions in
  let rows = List.concat_map (fun r -> r.e2e @ r.layers) results in
  (rows, report_errors sessions)

let run ~seed ~out =
  let rows, correct = run_all ~tiny:false ~seed ~reps:15 in
  List.iter print_row rows;
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string (rows_json ~seed ~correct rows));
      output_char oc '\n';
      close_out oc
  | None -> ());
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

(* The end-to-end bounds, from BENCHMARK.json in the current directory. *)
let bounds () =
  let j = Json.read_file "BENCHMARK.json" in
  List.filter_map
    (fun m ->
      match Json.to_str (Json.member "name" m), Json.to_num (Json.member "bound" m) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" j)))

type cell = { v : float; lo : float; hi : float }

(* A result set's seed and its cells by (workload, metric). *)
let load_results path =
  let j = Json.read_file path in
  if Json.to_num (Json.member "schema" j) <> Some 1.0 then
    failwith (path ^ ": not a schema-1 result file");
  ( Json.to_num (Json.member "seed" j),
    List.filter_map
      (fun r ->
        let s k = Json.to_str (Json.member k r) and f k = Json.to_num (Json.member k r) in
        match s "workload", s "metric", f "value", f "q1", f "q3" with
        | Some w, Some m, Some v, Some lo, Some hi -> Some ((w, m), { v; lo; hi })
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member "results" j))) )

(* Worsening of [b] relative to [a] as a share of [a] (negative: better). *)
let worsening (m : Spec.metric) a b =
  if a.v = 0.0 then
    if b.v = 0.0 then 0.0 else if m.better = Spec.Lower then infinity else neg_infinity
  else
    let d = (b.v -. a.v) /. Float.abs a.v in
    if m.better = Spec.Lower then d else -.d

(* A counted metric of two sets with one seed: any change is decided.
   Otherwise within the bound is the same; beyond it, a verdict only when
   the two runs' rep-to-rep ranges [q1, q3] do not overlap, or the spread is
   too wide to tell. Counted metrics have empty ranges, so across seeds any
   change beyond the bound is decided. *)
let verdict ~same_seed ~bound (m : Spec.metric) a b =
  let d = worsening m a b in
  match m.judge, bound with
  | Spec.Info, _ | _, None -> "info"
  | Spec.Counted, _ when same_seed ->
      if d = 0.0 then "same" else if d > 0.0 then "worse" else "better"
  | (Spec.Timed | Spec.Counted), Some bound ->
      if Float.abs d <= bound then "same"
      else if b.lo <= a.hi && a.lo <= b.hi then "unresolved"
      else if d > 0.0 then "worse"
      else "better"

let compare_files a_path b_path =
  let bounds = bounds () in
  let seed_a, a = load_results a_path and seed_b, b = load_results b_path in
  let same_seed = seed_a <> None && seed_a = seed_b in
  Printf.printf "%s\n"
    (if same_seed then "one seed: step counts must be identical"
     else "different seeds: step counts are judged against their bounds");
  let worse = ref 0 in
  List.iter
    (fun ((w, mname), ca) ->
      match Spec.find mname, List.assoc_opt (w, mname) b with
      | _, None ->
          incr worse;
          Printf.printf "%-13s %-26s missing from %s\n" w mname b_path
      | None, Some _ -> Printf.printf "%-13s %-26s undeclared metric\n" w mname
      | Some m, Some cb ->
          let verdict = verdict ~same_seed ~bound:(List.assoc_opt mname bounds) m ca cb in
          if verdict = "worse" then incr worse;
          let show c =
            Printf.sprintf "%s [%s, %s]" (Json.num_to_string c.v) (Json.num_to_string c.lo)
              (Json.num_to_string c.hi)
          in
          Printf.printf "%-13s %-26s %-10s A %s  B %s %s\n" w mname verdict (show ca) (show cb)
            m.unit)
    a;
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* smoke                                                                *)
(* ------------------------------------------------------------------ *)

(* BENCHMARK.json must declare exactly the workloads and metrics this
   program emits, with the same units and directions. *)
let check_spec path =
  let j = Json.read_file path in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let names key = List.filter_map (fun x -> Json.to_str (Json.member key x)) in
  let section k = Json.to_list (Option.value ~default:Json.Null (Json.member k j)) in
  if names "name" (section "workloads") <> Spec.workloads then
    err "BENCHMARK.json workloads differ from the program's";
  List.iter
    (fun (key, kind) ->
      let declared = section key in
      let ours = Spec.of_kind kind in
      if names "name" declared <> List.map (fun (m : Spec.metric) -> m.name) ours then
        err "BENCHMARK.json %s names differ from the program's" key;
      List.iter
        (fun d ->
          match Json.to_str (Json.member "name" d) with
          | None -> err "BENCHMARK.json %s entry without a name" key
          | Some n -> (
              match Spec.find n with
              | None -> ()
              | Some m ->
                  if Json.to_str (Json.member "unit" d) <> Some m.unit then
                    err "%s: unit differs from the program's %s" n m.unit;
                  if Json.to_str (Json.member "better" d) <> Some (Spec.better_name m.better)
                  then err "%s: direction differs from the program's" n))
        declared)
    [ ("end_to_end", Spec.E2e); ("per_layer", Spec.Layer) ];
  List.rev !errs

let smoke ~spec =
  let t0 = now () in
  let rows, correct = run_all ~tiny:true ~seed:17 ~reps:2 in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match List.filter (fun r -> r.workload = w && r.metric.name = m.name) rows with
          | [ r ] -> if Float.is_nan r.value then err "%s %s: not a number" w m.name
          | [] -> err "%s %s: not emitted" w m.name
          | _ -> err "%s %s: emitted twice" w m.name)
        Spec.metrics)
    Spec.workloads;
  List.iter
    (fun r ->
      if not (Spec.valid_name r.workload && Spec.valid_name r.metric.name) then
        err "malformed name %s %s" r.workload r.metric.name)
    rows;
  if not correct then err "the correctness gate failed";
  (match spec with Some p -> errs := List.rev_append (check_spec p) !errs | None -> ());
  match !errs with
  | [] -> Printf.printf "smoke: %d rows, gate green, %.2f s\n" (List.length rows) (now () -. t0)
  | es ->
      List.iter (Printf.eprintf "smoke: %s\n") (List.rev es);
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Sys.argv in
  let usage = "ptm_bench.exe [run|compare|smoke] [options] (see the header of ptm_bench.ml)" in
  let seed = ref 17 and seconds = ref 10.0 and trace = ref 0 and workload = ref "" in
  let out = ref None and spec = ref None and files = ref [] in
  let common =
    [ ("--seed", Arg.Set_int seed, "N workload seed") ]
  in
  let parse ?(start = 1) specs =
    try
      Arg.parse_argv ~current:(ref (start - 1)) argv specs
        (fun f -> files := !files @ [ f ])
        usage
    with Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2
  in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  match sub with
  | "run" ->
      parse ~start:2
        (common
        @ [ ("--out", Arg.String (fun f -> out := Some f), "FILE write the result set") ]);
      run ~seed:!seed ~out:!out
  | "compare" -> (
      parse ~start:2 [];
      match !files with
      | [ a; b ] -> compare_files a b
      | _ ->
          prerr_endline "compare needs two result files";
          exit 2)
  | "smoke" ->
      parse ~start:2 [ ("--spec", Arg.String (fun f -> spec := Some f), "FILE declarations") ];
      smoke ~spec:!spec
  | _ ->
      parse
        (common
        @ [
            ("--workload", Arg.Set_string workload, "NAME workload to measure");
            ("--seconds", Arg.Set_float seconds, "S timed seconds");
            ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
          ]);
      if not (List.mem !workload Spec.workloads) then begin
        prerr_endline
          ("unknown or missing --workload; one of: " ^ String.concat ", " Spec.workloads);
        exit 2
      end;
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace takes 0 or 1";
        exit 2
      end;
      measure ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
