(* Delta-debugging minimization of counterexample schedules.

   Schedules are lists of rendered actions (the Cex serialization form).
   Replaying one resolves every string back to a concrete action against
   the salted candidate draws of the states along the walk — plus a pool
   of every action value seen at earlier states, so an action can be
   scheduled at a position where the generator's gates would not have
   proposed it — and validates the resolved schedule with
   [Ioa.Exec.replay_prefix], i.e. by enabledness alone.  That is the whole
   point: the explorer's BFS witness is depth-minimal only inside the
   RNG-gated candidate subgraph it searched, while replay admits any
   enabled schedule, so shrinking can find strictly shorter paths to the
   same failure class. *)

type failure = Invariant of string | Step of string | Deadlock

let failure_to_string = function
  | Invariant n -> "invariant:" ^ n
  | Step c -> "step:" ^ c
  | Deadlock -> "deadlock"

let failure_of_string s =
  let prefixed p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "invariant:" with
  | Some n -> Ok (Invariant n)
  | None -> (
      match prefixed "step:" with
      | Some c -> Ok (Step c)
      | None ->
          if s = "deadlock" then Ok Deadlock
          else Error (Printf.sprintf "unknown failure class %S" s))

let equal_failure a b =
  match (a, b) with
  | Invariant x, Invariant y | Step x, Step y -> String.equal x y
  | Deadlock, Deadlock -> true
  | (Invariant _ | Step _ | Deadlock), _ -> false

let pp_failure ppf f = Format.pp_print_string ppf (failure_to_string f)

type ('s, 'a) oracle = {
  automaton :
    (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a);
  init : 's;
  key : 's -> string;
  seed : int array;
  invariants : 's Ioa.Invariant.t list;
  check_step : (('s, 'a) Ioa.Exec.step -> (unit, string) result) option;
  step_class : string;
  quiescent : ('s -> bool) option;
  pp_action : Format.formatter -> 'a -> unit;
  simplify : ('a -> 'a list) option;
}

type ('s, 'a) verdict = {
  failure : failure option;
  used : int;
  error : (int * string) option;
  exec : ('s, 'a) Ioa.Exec.t;
}

let render o a = Cex.render o.pp_action a

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay (type s a) (o : (s, a) oracle) strs =
  let (module A : Ioa.Automaton.GENERATIVE
        with type state = s
         and type action = a) =
    o.automaton
  in
  (* Resolution walk: match each rendered action against the salted
     candidate draws of the current state, falling back to the pool of
     values seen at any earlier state.  The walk stops early on an
     unresolvable or disabled action; the successful prefix is still
     classified below. *)
  let pool : (string, a) Hashtbl.t = Hashtbl.create 64 in
  let absorb state =
    List.iter
      (fun a ->
        let r = render o a in
        if not (Hashtbl.mem pool r) then Hashtbl.add pool r a)
      (Cex.candidate_draws o.automaton ~key:o.key ~seed:o.seed
         ~salts:Cex.default_salts state)
  in
  let rec walk state i acc = function
    | [] -> (List.rev acc, None)
    | str :: rest -> (
        absorb state;
        match Hashtbl.find_opt pool str with
        | None -> (List.rev acc, Some (i, "unresolvable action " ^ str))
        | Some a ->
            if not (A.enabled state a) then
              (List.rev acc, Some (i, "resolved action not enabled: " ^ str))
            else walk (A.step state a) (i + 1) (a :: acc) rest)
  in
  let resolved, error = walk o.init 0 [] strs in
  (* Authoritative validation of the resolved prefix: enabledness only. *)
  let exec, replay_err =
    Ioa.Exec.replay_prefix
      (module A : Ioa.Automaton.S with type state = s and type action = a)
      ~init:o.init resolved
  in
  let error = match replay_err with Some e -> Some e | None -> error in
  (* Classification: first invariant violation (initial state counts),
     else first step-property failure, in execution order; a full clean
     replay ending in a state with no enabled explorer candidate that the
     entry's quiescence predicate rejects is a deadlock. *)
  let first_inv s =
    List.find_opt (fun inv -> not (inv.Ioa.Invariant.holds s)) o.invariants
  in
  let classified =
    match first_inv exec.Ioa.Exec.init with
    | Some inv -> Some (Invariant inv.Ioa.Invariant.name, 0)
    | None ->
        let rec steps k = function
          | [] -> None
          | st :: rest -> (
              match
                Option.map (fun f -> f st) o.check_step
              with
              | Some (Error _) -> Some (Step o.step_class, k + 1)
              | Some (Ok ()) | None -> (
                  match first_inv st.Ioa.Exec.post with
                  | Some inv ->
                      Some (Invariant inv.Ioa.Invariant.name, k + 1)
                  | None -> steps (k + 1) rest))
        in
        steps 0 exec.Ioa.Exec.steps
  in
  match classified with
  | Some (f, used) -> { failure = Some f; used; error; exec }
  | None ->
      let n = List.length exec.Ioa.Exec.steps in
      let deadlocked =
        error = None
        &&
        match o.quiescent with
        | None -> false
        | Some q ->
            let last = Ioa.Exec.last exec in
            (not (q last))
            && Cex.candidate_draws o.automaton ~key:o.key ~seed:o.seed
                 ~salts:1 last
               |> List.filter (A.enabled last)
               = []
      in
      if deadlocked then { failure = Some Deadlock; used = n; error; exec }
      else { failure = None; used = n; error; exec }

let reproduces o target strs =
  match (replay o strs).failure with
  | Some f -> equal_failure f target
  | None -> false

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

let take n xs = List.filteri (fun i _ -> i < n) xs
let remove_at i xs = List.filteri (fun j _ -> j <> i) xs

(* ddmin (Zeller–Hildebrandt): try removing each of [n] chunks; on
   success restart with coarser granularity, otherwise refine until the
   chunks are single actions. *)
let ddmin repro xs =
  let remove_range xs start len =
    List.filteri (fun i _ -> i < start || i >= start + len) xs
  in
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 then xs
    else begin
      let n = min n len in
      let chunk = (len + n - 1) / n in
      let rec try_chunks i =
        if i * chunk >= len then None
        else
          let cand = remove_range xs (i * chunk) chunk in
          if cand <> [] && repro cand then Some cand else try_chunks (i + 1)
      in
      match try_chunks 0 with
      | Some reduced -> go reduced (max 2 (n - 1))
      | None -> if n >= len then xs else go xs (min len (2 * n))
    end
  in
  go xs 2

(* Single-action removal to fixpoint: ddmin's chunk complements can leave
   removable single actions behind. *)
let rec sweep repro xs =
  let len = List.length xs in
  let rec try_i i =
    if i >= len then xs
    else
      let cand = remove_at i xs in
      if repro cand then sweep repro cand else try_i (i + 1)
  in
  try_i 0

(* Per-action simplification: replace one action with a hook-proposed
   simpler variant whenever the failure survives.  Budgeted in oracle
   evaluations. *)
let simplify_pass o repro fuel xs =
  match o.simplify with
  | None -> xs
  | Some simp ->
      let fuel = ref fuel in
      let rec loop xs =
        if !fuel <= 0 then xs
        else begin
          let v = replay o xs in
          let acts = Array.of_list (Ioa.Exec.actions v.exec) in
          let strs = Array.of_list xs in
          let replace i r =
            Array.to_list (Array.mapi (fun j s -> if j = i then r else s) strs)
          in
          let rec try_pos i =
            if i >= Array.length acts || !fuel <= 0 then None
            else begin
              let variants =
                simp acts.(i)
                |> List.map (render o)
                |> List.filter (fun r -> r <> strs.(i))
              in
              let rec try_var = function
                | [] -> try_pos (i + 1)
                | r :: rest ->
                    decr fuel;
                    let cand = replace i r in
                    if repro cand then Some cand else try_var rest
              in
              try_var variants
            end
          in
          match try_pos 0 with Some better -> loop better | None -> xs
        end
      in
      loop xs

(* Oracle evaluations the simplification pass may spend. *)
let simplify_fuel = 256

let shrink o target strs =
  let repro = reproduces o target in
  if not (repro strs) then strs
  else begin
    let truncate ss =
      let v = replay o ss in
      match v.failure with
      | Some f when equal_failure f target -> take v.used ss
      | _ -> ss
    in
    let cur = truncate strs in
    let cur = ddmin repro cur in
    let cur = sweep repro cur in
    let cur = simplify_pass o repro simplify_fuel cur in
    let cur = sweep repro cur in
    truncate cur
  end

let is_one_minimal o target strs =
  reproduces o target strs
  && List.for_all
       (fun i -> not (reproduces o target (remove_at i strs)))
       (List.init (List.length strs) Fun.id)
