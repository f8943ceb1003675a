type t = int

let g0 = 0
let compare = Int.compare
let equal = Int.equal
let lt a b = a < b
let le a b = a <= b
let gt a b = a > b
let ge a b = a >= b
let succ g = g + 1
let max = Stdlib.max

let to_buffer buf g =
  Buffer.add_char buf 'g';
  Render.int buf g

let to_string g = Render.to_string to_buffer g
let pp ppf g = Render.pp to_buffer ppf g

module Map = Stdlib.Map.Make (Int)
module Set = Stdlib.Set.Make (Int)

module Bot = struct
  type nonrec t = t option

  let bot = None
  let of_gid g = Some g

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Int.equal x y
    | None, Some _ | Some _, None -> false

  let lt_gid b g = match b with None -> true | Some x -> x < g

  let to_buffer buf b = Render.option ~none:"⊥" to_buffer buf b

  let pp ppf b = Render.pp to_buffer ppf b
end
