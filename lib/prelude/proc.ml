type t = int

let compare = Int.compare
let equal = Int.equal

let to_buffer buf p =
  Buffer.add_char buf 'p';
  Render.int buf p

let to_string p = Render.to_string to_buffer p
let pp ppf p = Render.pp to_buffer ppf p

module Set = struct
  include Stdlib.Set.Make (Int)

  let to_buffer buf s =
    Buffer.add_char buf '{';
    Render.iter ~sep:"," iter to_buffer buf s;
    Buffer.add_char buf '}'

  let pp ppf s = Render.pp to_buffer ppf s

  let universe n =
    if n < 0 then invalid_arg "Proc.Set.universe: negative size";
    List.init n Fun.id |> of_list

  let majority_of ~part ~whole = 2 * cardinal (inter part whole) > cardinal whole

  let nonempty_subsets s =
    let add_elt elt subsets =
      List.rev_append subsets (List.rev_map (add elt) subsets)
    in
    fold add_elt s [ empty ] |> List.filter (fun sub -> not (is_empty sub))
end

module Map = struct
  include Stdlib.Map.Make (Int)

  let find_or ~default p m = match find_opt p m with Some v -> v | None -> default
end
