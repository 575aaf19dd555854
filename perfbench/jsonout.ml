(* Just enough JSON for the benchmark's output lines. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) fields)
    ^ "}"
