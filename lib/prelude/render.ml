let to_string write x =
  let buf = Buffer.create 64 in
  write buf x;
  Buffer.contents buf

let pp write ppf x = Format.pp_print_string ppf (to_string write x)

(* Keys are full of one-digit processor, view and sequence numbers;
   writing those as one char skips [string_of_int]'s allocation. *)
let int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else Buffer.add_string buf (string_of_int n)

let option ~none write buf = function
  | None -> Buffer.add_string buf none
  | Some x -> write buf x

let iter ~sep iter write buf c =
  let first = ref true in
  iter
    (fun x ->
      if !first then first := false else Buffer.add_string buf sep;
      write buf x)
    c

let bindings ~sep iter wk kv wv buf m =
  let first = ref true in
  iter
    (fun k v ->
      if !first then first := false else Buffer.add_string buf sep;
      wk buf k;
      Buffer.add_string buf kv;
      wv buf v)
    m

type layout = { ppf : Format.formatter; tok : Buffer.t }

let layout buf =
  { ppf = Format.formatter_of_buffer buf; tok = Buffer.create 256 }

let text l = l.tok

let emit l =
  Format.pp_print_string l.ppf (Buffer.contents l.tok);
  Buffer.clear l.tok

let cut_bindings l iter wk kv wv m =
  let first = ref true in
  iter
    (fun k v ->
      if !first then first := false
      else begin
        emit l;
        Format.pp_print_cut l.ppf ()
      end;
      wk l.tok k;
      Buffer.add_string l.tok kv;
      wv l.tok v;
      Buffer.add_char l.tok ';')
    m

let finish l =
  emit l;
  Format.pp_print_flush l.ppf ()
