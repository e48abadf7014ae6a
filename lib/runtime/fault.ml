type plan =
  | After of { mutable remaining : int; reason : Errors.stop_reason }
  | Probability of {
      p : float;
      mutable state : int64;
      reason : Errors.stop_reason;
    }

(* The armed plan is domain-local: worker domains start with no plan
   and receive a derived one per task via [with_derived], so a plan
   armed in the test runner never leaks into concurrent tasks except
   through the deterministic capture/derive path. *)
let armed_key : plan option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_plan () = Domain.DLS.get armed_key
let set_plan p = Domain.DLS.set armed_key p

(* splitmix64: one multiply-xor-shift step per consultation, so the
   injection trace is a pure function of the seed and the check
   sequence — independent of the global Random state. *)
let splitmix64 s =
  let s = Int64.add s 0x9E3779B97F4A7C15L in
  let z = s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, Int64.logxor z (Int64.shift_right_logical z 31))

let unit_float bits =
  let mantissa = Int64.to_int (Int64.shift_right_logical bits 11) in
  float_of_int mantissa /. 9007199254740992.0 (* 2^53 *)

let arm_after ~checks ~reason =
  if checks < 0 then invalid_arg "Fault.arm_after: negative check count";
  set_plan (Some (After { remaining = checks; reason }))

let arm ~seed ~p ~reason =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Fault.arm: p outside [0,1]";
  set_plan (Some (Probability { p; state = Int64.of_int seed; reason }))

let disarm () = set_plan None

let armed () = get_plan () <> None

let should_fail () =
  match get_plan () with
  | None -> None
  | Some (After a) ->
    if a.remaining <= 0 then Some a.reason
    else begin
      a.remaining <- a.remaining - 1;
      None
    end
  | Some (Probability pr) ->
    let state, bits = splitmix64 pr.state in
    pr.state <- state;
    if unit_float bits < pr.p then Some pr.reason else None

let with_plan ~arm:do_arm f =
  do_arm ();
  Fun.protect ~finally:disarm f

(* Per-query derivation: the batch path snapshots the submitting
   domain's plan once ([capture]), then rebuilds an equivalent but
   independent plan for each query from the snapshot and the query's
   index ([with_derived]).  Every query's injection trace is therefore
   a function of the plan and its index alone, not of the queries
   before it in the batch. *)
type captured =
  | No_plan
  | Countdown of { checks : int; reason : Errors.stop_reason }
  | Coin of { p : float; state : int64; reason : Errors.stop_reason }

let capture () =
  match get_plan () with
  | None -> No_plan
  | Some (After a) -> Countdown { checks = a.remaining; reason = a.reason }
  | Some (Probability pr) ->
    Coin { p = pr.p; state = pr.state; reason = pr.reason }

let derive c ~index =
  match c with
  | No_plan -> None
  | Countdown { checks; reason } ->
    (* Same countdown for every query: "fail after N checks" becomes a
       per-query property, not a position in some global sequence. *)
    Some (After { remaining = checks; reason })
  | Coin { p; state; reason } ->
    (* Mix the query index into the stream so queries draw independent
       but reproducible coins. *)
    let _, mixed = splitmix64 (Int64.add state (Int64.of_int (index + 1))) in
    Some (Probability { p; state = mixed; reason })

let with_derived c ~index f =
  let saved = get_plan () in
  set_plan (derive c ~index);
  Fun.protect ~finally:(fun () -> set_plan saved) f

(* -------------------------------------------------------- op hooks *)

(* Named lifecycle hooks for the serving and storage layers: a
   component calls [check_op "serve.read"] (etc.) at each boundary it
   promises to survive, and an armed hook raises [Injected_fault] for
   that operation — standing in for a torn read, a failed rename, a
   handler bug. Unlike the budget plans these are keyed by operation
   name, so a test can poison exactly one boundary while the rest of
   the process runs clean. The table is shared by every thread of the
   arming domain on purpose: the server's handler threads must see the
   plan the test armed. *)

exception Injected_fault of string

type op_plan = { mutable passes : int; mutable failures : int }

let ops_key : (string, op_plan) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

let ops () = Domain.DLS.get ops_key

let arm_op ~op ?(after = 0) ?(times = max_int) () =
  if after < 0 then invalid_arg "Fault.arm_op: negative after";
  if times < 0 then invalid_arg "Fault.arm_op: negative times";
  Hashtbl.replace (ops ()) op { passes = after; failures = times }

let disarm_op ~op = Hashtbl.remove (ops ()) op

let check_op op =
  match Hashtbl.find_opt (ops ()) op with
  | None -> ()
  | Some plan ->
    if plan.passes > 0 then plan.passes <- plan.passes - 1
    else if plan.failures > 0 then begin
      plan.failures <- plan.failures - 1;
      if plan.failures = 0 then Hashtbl.remove (ops ()) op;
      raise (Injected_fault op)
    end

let with_op ~op ?after ?times f =
  arm_op ~op ?after ?times ();
  Fun.protect ~finally:(fun () -> disarm_op ~op) f
