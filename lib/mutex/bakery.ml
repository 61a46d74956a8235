open Ptm_machine

let name = "bakery"

type t = {
  choosing : Memory.addr array;  (* choosing.(p), owned by p *)
  number : Memory.addr array;  (* number.(p), owned by p *)
}

let create machine ~nprocs =
  {
    choosing =
      Array.init nprocs (fun p ->
          Machine.alloc machine ~owner:p ~name:"bakery.choosing" ~index:p
            (Value.Bool false));
    number =
      Array.init nprocs (fun p ->
          Machine.alloc machine ~owner:p ~name:"bakery.number" ~index:p
            (Value.Int 0));
  }

let enter t ~pid =
  let n = Array.length t.number in
  Proc.write t.choosing.(pid) (Value.Bool true);
  let max = ref 0 in
  for j = 0 to n - 1 do
    let nj = Proc.read_int t.number.(j) in
    if nj > !max then max := nj
  done;
  Proc.write t.number.(pid) (Value.Int (!max + 1));
  Proc.write t.choosing.(pid) (Value.Bool false);
  for j = 0 to n - 1 do
    if j <> pid then begin
      while Proc.read_bool t.choosing.(j) do
        ()
      done;
      let lower_priority () =
        let nj = Proc.read_int t.number.(j) in
        nj <> 0
        &&
        let ni = Value.to_int (Proc.read t.number.(pid)) in
        nj < ni || (nj = ni && j < pid)
      in
      while lower_priority () do
        ()
      done
    end
  done

let exit_cs t ~pid = Proc.write t.number.(pid) (Value.Int 0)
