open Prelude

type t = {
  issued : View.Set.t;
  next_id : Gid.t;
  notified : Gid.Bot.t Proc.Map.t;
  components : Proc.Set.t list;
}

let initial ~p0 =
  {
    issued = View.Set.empty;
    next_id = Gid.succ Gid.g0;
    notified =
      Proc.Set.fold
        (fun p acc -> Proc.Map.add p (Gid.Bot.of_gid Gid.g0) acc)
        p0 Proc.Map.empty;
    components = [ p0 ];
  }

let created ~p0 t = View.Set.add (View.initial p0) t.issued

let reconfigure t components = { t with components }

let create ?metrics t c =
  let is_component = List.exists (Proc.Set.equal c) t.components in
  if not is_component then None
  else begin
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "daemon.views_created");
    let v = View.make ~id:t.next_id ~set:c in
    Some
      ( { t with issued = View.Set.add v t.issued; next_id = Gid.succ t.next_id },
        v )
  end

let can_notify t v p =
  View.mem p v
  && Gid.Bot.lt_gid (Proc.Map.find_or ~default:Gid.Bot.bot p t.notified) (View.id v)

let notify ?metrics t v p =
  (match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.incr m "daemon.notifications");
  { t with notified = Proc.Map.add p (Gid.Bot.of_gid (View.id v)) t.notified }

let permute pi t =
  {
    issued = View.Set.map (View.permute pi) t.issued;
    next_id = t.next_id;
    notified =
      Proc.Map.fold
        (fun p g acc -> Proc.Map.add (pi p) g acc)
        t.notified Proc.Map.empty;
    components = List.map (Proc.Set.map pi) t.components;
  }

let equal a b =
  View.Set.equal a.issued b.issued
  && Gid.equal a.next_id b.next_id
  && Proc.Map.equal Gid.Bot.equal a.notified b.notified
  && List.length a.components = List.length b.components
  && List.for_all2 Proc.Set.equal a.components b.components

let pp ppf t =
  Format.fprintf ppf "daemon: %d views issued, next %a" (View.Set.cardinal t.issued)
    Gid.pp t.next_id

let key_to_buffer buf t =
  Buffer.add_string buf "is";
  View.Set.to_buffer buf t.issued;
  Buffer.add_string buf "|nx";
  Gid.to_buffer buf t.next_id;
  Buffer.add_string buf "|nt[";
  Render.bindings ~sep:";" Proc.Map.iter Proc.to_buffer "="
    Gid.Bot.to_buffer buf t.notified;
  Buffer.add_string buf "]|cp[";
  Render.iter ~sep:";" List.iter Proc.Set.to_buffer buf t.components;
  Buffer.add_char buf ']'

let state_key t = Render.to_string key_to_buffer t

(* Flat canonical codec over the same four components [state_key]
   renders; injective up to [equal]. *)
let codec : t Check.Codec.f =
  let open Check.Codec in
  let notified_c = proc_map gid_bot in
  let components_c = list proc_set in
  {
    wr =
      (fun b t ->
        view_set.wr b t.issued;
        Check.Codec.gid.wr b t.next_id;
        notified_c.wr b t.notified;
        components_c.wr b t.components);
    rd =
      (fun r ->
        let issued = view_set.rd r in
        let next_id = Check.Codec.gid.rd r in
        let notified = notified_c.rd r in
        let components = components_c.rd r in
        { issued; next_id; notified; components });
  }
