exception Exhausted of Errors.stop_reason

type t = {
  limited : bool;
  deadline : float;  (* absolute Unix.gettimeofday; infinity = none *)
  mutable fuel : int;  (* remaining steps; max_int = none *)
  mutable tick : int;  (* checks until the next wall-clock poll *)
  mutable spent : int;
}

(* Polling the wall clock every check would dominate the hot loops;
   one gettimeofday per stride keeps the cooperative overhead within
   the <3% target while bounding deadline overshoot to a stride of
   cheap steps. *)
let clock_stride = 64

(* Never mutated: the fast path bails on [limited] first. *)
let unlimited =
  {
    limited = false;
    deadline = infinity;
    fuel = max_int;
    tick = 0;
    spent = 0;
  }

let make ?timeout_ms ?fuel () =
  let deadline =
    match timeout_ms with
    | None -> infinity
    | Some ms ->
      if ms < 0 then invalid_arg "Budget.make: negative timeout";
      Unix.gettimeofday () +. (float_of_int ms /. 1000.0)
  in
  let fuel =
    match fuel with
    | None -> max_int
    | Some f ->
      if f < 0 then invalid_arg "Budget.make: negative fuel";
      f
  in
  { limited = true; deadline; fuel; tick = clock_stride; spent = 0 }

let spent b = b.spent

let slow_check b =
  b.spent <- b.spent + 1;
  (match Fault.should_fail () with
  | Some reason -> raise (Exhausted reason)
  | None -> ());
  if b.fuel <> max_int then begin
    b.fuel <- b.fuel - 1;
    if b.fuel < 0 then raise (Exhausted Errors.Fuel)
  end;
  b.tick <- b.tick - 1;
  if b.tick <= 0 then begin
    b.tick <- clock_stride;
    if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
      raise (Exhausted Errors.Timeout)
  end

let check b = if b.limited then slow_check b

let protect b f =
  match f () with
  | v -> Ok v
  | exception Exhausted reason ->
    ignore b;
    Error reason
