open Prelude

type intensity = { drop : float; duplicate : float; reorder : float }

let calm = { drop = 0.; duplicate = 0.; reorder = 0. }
let storm = { drop = 0.3; duplicate = 0.15; reorder = 0.15 }

let is_calm i = i.drop = 0. && i.duplicate = 0. && i.reorder = 0.

type phase = {
  label : string;
  intensity : intensity;
  partition : Partition.t;
  steps : int;
}

let heal part =
  let rec go part =
    if List.length (Partition.components part) <= 1 then part
    else
      (* merge is only a no-op when a single component remains, so this
         terminates; the rng argument is irrelevant once we merge all *)
      go (Partition.merge (Random.State.make [| 0 |]) part)
  in
  go part

let schedule rng ~universe ~phases ~steps_per_phase =
  if Proc.Set.is_empty universe then
    invalid_arg "Faults.schedule: empty universe";
  if phases <= 0 then invalid_arg "Faults.schedule: phases <= 0";
  if steps_per_phase <= 0 then invalid_arg "Faults.schedule: steps_per_phase <= 0";
  let rec go k part acc =
    if k >= phases then List.rev acc
    else begin
      let stormy = k mod 2 = 1 in
      let part' =
        if k = 0 then part
        else if stormy then
          (* entering a storm sometimes tears the network apart too *)
          if Random.State.bool rng then Partition.split rng part else part
        else
          (* calm phases let the network heal step by step *)
          Partition.merge rng part
      in
      let p =
        {
          label = Printf.sprintf "%s-%d" (if stormy then "storm" else "calm") k;
          intensity = (if stormy then storm else calm);
          partition = part';
          steps = steps_per_phase;
        }
      in
      go (k + 1) part' (p :: acc)
    end
  in
  let plan = go 0 (Partition.whole universe) [] in
  (* the soak must end in a fully-healed calm segment so liveness checks
     have a chance to drain the network *)
  match List.rev plan with
  | last :: rest when is_calm last.intensity ->
      List.rev ({ last with partition = heal last.partition } :: rest)
  | last :: rest ->
      List.rev
        ({
           label = Printf.sprintf "calm-%d" phases;
           intensity = calm;
           partition = heal last.partition;
           steps = steps_per_phase;
         }
         :: last :: rest)
  | [] -> plan

(* Wall-clock view of a plan for live (non-step-counted) consumers:
   phase k is active on [k·phase_seconds, (k+1)·phase_seconds); the
   final phase persists past the end — it is calm and fully healed by
   construction, so an over-running soak drains under clean conditions. *)
let timeline ~phase_seconds phases =
  if phase_seconds <= 0. then invalid_arg "Faults.timeline: phase_seconds <= 0";
  if phases = [] then invalid_arg "Faults.timeline: empty plan";
  let arr = Array.of_list phases in
  fun t ->
    let k = if t <= 0. then 0 else int_of_float (t /. phase_seconds) in
    arr.(min k (Array.length arr - 1))

let pp_intensity ppf i =
  Format.fprintf ppf "{drop=%.2f dup=%.2f reord=%.2f}" i.drop i.duplicate
    i.reorder

let pp_phase ppf p =
  Format.fprintf ppf "%s: %a over %a for %d steps" p.label pp_intensity
    p.intensity Partition.pp p.partition p.steps
