(* Dense bitsets over [{0, ..., len - 1}], packed into OCaml's native
   63-bit integers and updated in place. *)

let bpw = Sys.int_size (* bits per word: 63 on 64-bit platforms *)

type t = { len : int; words : int array }

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Array.make ((len + bpw - 1) / bpw) 0 }

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let add t i =
  check t i;
  t.words.(i / bpw) <- t.words.(i / bpw) lor (1 lsl (i mod bpw))

let remove t i =
  check t i;
  t.words.(i / bpw) <- t.words.(i / bpw) land lnot (1 lsl (i mod bpw))

(* SWAR popcount, written for 63-bit words: the usual byte-wise masks
   are built by shifting so no literal exceeds [max_int]. *)
let m1 = 0x55555555 lor (0x55555555 lsl 32)
let m2 = 0x33333333 lor (0x33333333 lsl 32)
let m4 = 0x0F0F0F0F lor (0x0F0F0F0F lsl 32)

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  let x = x + (x lsr 32) in
  x land 0x7F

(* The index of a one-bit word [b] is its trailing zero count,
   popcount (b - 1). *)
let min_elt_opt t =
  let result = ref None in
  (try
     for k = 0 to Array.length t.words - 1 do
       let w = t.words.(k) in
       if w <> 0 then begin
         result := Some ((k * bpw) + popcount ((w land (-w)) - 1));
         raise Exit
       end
     done
   with Exit -> ());
  !result

let to_iset t =
  let s = ref Iset.empty in
  for k = 0 to Array.length t.words - 1 do
    let w = ref t.words.(k) in
    while !w <> 0 do
      let b = !w land (- !w) in
      s := Iset.add ((k * bpw) + popcount (b - 1)) !s;
      w := !w land lnot b
    done
  done;
  !s
