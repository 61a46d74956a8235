exception Out_of_steps

let default_max = 3_000_000

let runnable m pid =
  match Machine.status m pid with Machine.Runnable -> true | _ -> false

let round_robin ?(max_steps = default_max) m =
  let n = Machine.nprocs m in
  let budget = ref max_steps in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    for pid = 0 to n - 1 do
      if runnable m pid then begin
        if !budget <= 0 then raise Out_of_steps;
        decr budget;
        ignore (Machine.step m pid : Machine.step_result);
        progressed := true
      end
    done
  done

let random ~seed ?(max_steps = default_max) m =
  let rng = Random.State.make [| seed |] in
  let n = Machine.nprocs m in
  let budget = ref max_steps in
  let rec loop () =
    let live = List.filter (runnable m) (List.init n Fun.id) in
    match live with
    | [] -> ()
    | _ ->
        if !budget <= 0 then raise Out_of_steps;
        decr budget;
        let pid = List.nth live (Random.State.int rng (List.length live)) in
        ignore (Machine.step m pid : Machine.step_result);
        loop ()
  in
  loop ()

let script m pids =
  List.iter
    (fun pid ->
      if not (runnable m pid) then
        invalid_arg
          (Printf.sprintf "Sched.script: process %d is not runnable" pid);
      ignore (Machine.step m pid : Machine.step_result))
    pids

let solo ?(max_steps = default_max) m pid =
  let budget = ref max_steps in
  let rec loop () =
    if !budget <= 0 then raise Out_of_steps;
    decr budget;
    match Machine.step m pid with
    | `Progress -> loop ()
    | `Paused -> `Paused
    | `Done -> `Done
  in
  if runnable m pid then loop () else `Done
