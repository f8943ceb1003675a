include Map.Make (struct
  type t = Proc.t * Gid.t

  let compare (p, g) (p', g') =
    match Proc.compare p p' with 0 -> Gid.compare g g' | c -> c
end)

let find_or ~default k m = match find_opt k m with Some v -> v | None -> default

let key_to_buffer buf (p, g) =
  Proc.to_buffer buf p;
  Buffer.add_char buf '.';
  Gid.to_buffer buf g
