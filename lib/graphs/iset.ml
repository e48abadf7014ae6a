include Set.Make (Int)

let of_array a = Array.fold_left (fun s x -> add x s) empty a

let range n =
  let rec go acc i = if i < 0 then acc else go (add i acc) (i - 1) in
  go empty (n - 1)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements s)

let to_string s = Format.asprintf "%a" pp s
