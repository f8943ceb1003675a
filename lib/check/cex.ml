(* Serializable counterexamples: a registry entry name, the run seed, the
   action schedule (rendered, margin-free) and the failure class.  The
   schedule is stored as strings so a corpus file is reviewable in a diff
   and survives representation changes that keep the rendering stable. *)

type t = {
  entry : string;
  seed : int array;
  actions : string list;
  violation : string;
  state : string option;
}

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Margin-free rendering: [Format.asprintf] would line-break long actions
   at the default margin, and schedule entries are matched by string
   equality during resolution. *)
let render pp a =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf max_int;
  pp ppf a;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let to_json t =
  (* The flat-codec wire form of the failure state (hex of the framed
     encoding) is emitted only when present, so pre-codec corpus lines
     round-trip byte-identically. *)
  let state_field =
    match t.state with
    | None -> []
    | Some st -> [ ("state", Obs.Json.Str st) ]
  in
  Obs.Json.Obj
    ([
       ("entry", Obs.Json.Str t.entry);
       ( "seed",
         Obs.Json.List
           (Array.to_list (Array.map (fun n -> Obs.Json.Int n) t.seed)) );
       ("actions", Obs.Json.List (List.map (fun a -> Obs.Json.Str a) t.actions));
       ("violation", Obs.Json.Str t.violation);
     ]
    @ state_field)

let of_json j =
  let str = function Obs.Json.Str s -> Ok s | _ -> Error "expected string" in
  let field name =
    match Obs.Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let* entry = Result.bind (field "entry") str in
  let* seed =
    let* v = field "seed" in
    match v with
    | Obs.Json.List ns ->
        List.fold_left
          (fun acc n ->
            let* acc = acc in
            match n with
            | Obs.Json.Int n -> Ok (n :: acc)
            | _ -> Error "seed: expected int")
          (Ok []) ns
        |> Result.map (fun ns -> Array.of_list (List.rev ns))
    | _ -> Error "seed: expected list"
  in
  let* actions =
    let* v = field "actions" in
    match v with
    | Obs.Json.List xs ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* s = str x in
            Ok (s :: acc))
          (Ok []) xs
        |> Result.map List.rev
    | _ -> Error "actions: expected list"
  in
  let* violation = Result.bind (field "violation") str in
  let* state =
    match Obs.Json.member "state" j with
    | None -> Ok None
    | Some v -> Result.map Option.some (str v)
  in
  Ok { entry; seed; actions; violation; state }

let of_string line =
  match Obs.Json.of_string line with
  | Error e -> Error e
  | Ok j -> of_json j

(* ------------------------------------------------------------------ *)
(* JSONL persistence                                                   *)
(* ------------------------------------------------------------------ *)

(* Write-to-temp-then-rename: a crashed or interrupted writer never leaves
   a half-written corpus file behind (the [.tmp] is gitignored). *)
let save ~path ts =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun t ->
          output_string oc (Obs.Json.to_string (to_json t));
          output_char oc '\n')
        ts);
  Sys.rename tmp path

let load ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (lineno + 1) acc
          | line -> (
              match of_string line with
              | Ok t -> go (lineno + 1) (t :: acc)
              | Error e ->
                  Error (Printf.sprintf "%s:%d: %s" path lineno e))
        in
        go 1 [])
  end

(* ------------------------------------------------------------------ *)
(* Candidate draws                                                     *)
(* ------------------------------------------------------------------ *)

(* The union of the generator's proposals at [state] over [salts]
   deterministic RNG streams.  Salt 0 is the explorer's own per-state
   draw ({!Explorer.candidates}); the extra salts re-draw the generator's
   probabilistic gates so rarely-proposed actions — fault injections below
   probability 1, paced view changes — surface even when the explorer's
   single draw withheld them.  This is what lets shrinking and
   reconstruction move through transitions the explored subgraph never
   contained. *)
let candidate_draws automaton ~key ~seed ~salts state =
  (* render the key once for all the salts *)
  let k = key state in
  let draw salt =
    let seed = if salt = 0 then seed else Array.append seed [| salt |] in
    Explorer.candidates automaton ~key:(fun _ -> k) ~seed state
  in
  List.concat_map draw (List.init (max 1 salts) Fun.id)

let default_salts = 8

(* ------------------------------------------------------------------ *)
(* Path reconstruction                                                 *)
(* ------------------------------------------------------------------ *)

let reconstruct (type s a)
    (module A : Ioa.Automaton.GENERATIVE with type state = s and type action = a)
    ~key ?(seed = [| 0 |]) ?(salts = default_salts)
    ~(trace : Explorer.trace) ~init ~target () =
  let fp_of s = Fingerprint.of_string (key s) in
  let target_fp = fp_of target in
  (* Walk the predecessor table back to the initial state.  The table has
     one entry per admitted state and every chain shortens the BFS depth,
     so a walk longer than the table is a corrupted table (cycle). *)
  let rec chain acc fp guard =
    if Fingerprint.equal fp trace.Explorer.trace_init then Ok acc
    else if guard = 0 then Error "predecessor chain does not terminate"
    else
      match
        Fingerprint.Table.find_opt trace.Explorer.trace_parents fp
      with
      | None ->
          Error
            (Printf.sprintf "no recorded predecessor for %s"
               (Fingerprint.to_hex fp))
      | Some (pfp, idx) -> chain ((fp, idx) :: acc) pfp (guard - 1)
  in
  match
    chain [] target_fp
      (Fingerprint.Table.length trace.Explorer.trace_parents + 1)
  with
  | Error _ as e -> e
  | Ok hops ->
      (* Re-execute the path.  At each hop, first try the recorded index
         into the enabled subset of the explorer's own candidate draw —
         exact when the exploration used the per-state RNG discipline —
         and verify by fingerprint; otherwise search every enabled action
         of the salted draws for one that lands on the recorded
         successor. *)
      let rec go state acc = function
        | [] -> Ok (List.rev acc)
        | (child_fp, idx) :: rest -> (
            let advance action =
              go (A.step state action) (action :: acc) rest
            in
            let lands action =
              A.enabled state action
              && Fingerprint.equal (fp_of (A.step state action)) child_fp
            in
            let own =
              candidate_draws (module A) ~key ~seed ~salts:1 state
              |> List.filter (A.enabled state)
            in
            match List.nth_opt own idx with
            | Some a when lands a -> advance a
            | _ -> (
                let pool = candidate_draws (module A) ~key ~seed ~salts state in
                match List.find_opt lands pool with
                | Some a -> advance a
                | None ->
                    Error
                      (Printf.sprintf
                         "no enabled candidate reaches successor %s"
                         (Fingerprint.to_hex child_fp))))
      in
      go init [] hops
