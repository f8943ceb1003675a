open Prelude

type payload = string
type status = Normal | Send | Collect

let status_name = function
  | Normal -> "normal"
  | Send -> "send"
  | Collect -> "collect"

let pp_status ppf s = Format.pp_print_string ppf (status_name s)

type state = {
  me : Proc.t;
  current : View.t option;
  status : status;
  content : payload Label.Map.t;
  nextseqno : int;
  buffer : Label.t Seqs.t;
  safe_labels : Label.Set.t;
  order : Label.t Seqs.t;
  nextconfirm : int;
  nextreport : int;
  highprimary : Gid.t;
  gotstate : Summary.gotstate;
  safe_exch : Proc.Set.t;
  registered : Gid.Set.t;
  delay : payload Seqs.t;
  established : Gid.Set.t;
  buildorder : Label.t Seqs.t Gid.Map.t;
}

type action =
  | Bcast of payload
  | Label_msg of payload
  | Dvs_gpsnd of To_msg.t
  | Dvs_gprcv of Proc.t * To_msg.t
  | Dvs_safe of Proc.t * To_msg.t
  | Dvs_newview of View.t
  | Dvs_register
  | Confirm
  | Brcv of Proc.t * payload

let initial ~p0 p =
  let member = Proc.Set.mem p p0 in
  {
    me = p;
    current = (if member then Some (View.initial p0) else None);
    status = Normal;
    content = Label.Map.empty;
    nextseqno = 1;
    buffer = Seqs.empty;
    safe_labels = Label.Set.empty;
    order = Seqs.empty;
    nextconfirm = 1;
    nextreport = 1;
    highprimary = Gid.g0;
    gotstate = Proc.Map.empty;
    safe_exch = Proc.Set.empty;
    registered = (if member then Gid.Set.singleton Gid.g0 else Gid.Set.empty);
    delay = Seqs.empty;
    established = Gid.Set.empty;
    buildorder = Gid.Map.empty;
  }

let summary s =
  Summary.make ~con:s.content ~ord:s.order ~next:s.nextconfirm ~high:s.highprimary

let current_id s =
  match s.current with None -> Gid.Bot.bot | Some v -> Gid.Bot.of_gid (View.id v)

let established_in s g = Gid.Set.mem g s.established
let confirmed_prefix s = Seqs.sub1 s.order 1 (s.nextconfirm - 1)

(* Record [order] into the buildorder history for the current view. *)
let note_order s =
  match s.current with
  | None -> s
  | Some v -> { s with buildorder = Gid.Map.add (View.id v) s.order s.buildorder }

let enabled s = function
  | Bcast _ | Dvs_gprcv _ | Dvs_safe _ | Dvs_newview _ -> true (* inputs *)
  | Label_msg a -> (
      (* Labelling waits for normal status: a label minted during the state
         exchange would ride inside this process's summary *and* later as a
         normal message, and get ordered twice.  (Figure 5 omits the status
         check; without it the Section 6.2 invariants are violated — see the
         interface note.) *)
      s.current <> None
      && s.status = Normal
      && match Seqs.head_opt s.delay with Some a' -> String.equal a a' | None -> false)
  | Dvs_gpsnd (To_msg.Data (l, a)) -> (
      s.status = Normal
      && (match Seqs.head_opt s.buffer with
         | Some l' -> Label.equal l l'
         | None -> false)
      && match Label.Map.find_opt l s.content with
         | Some a' -> String.equal a a'
         | None -> false)
  | Dvs_gpsnd (To_msg.Summ x) -> s.status = Send && Summary.equal x (summary s)
  | Dvs_register -> (
      match s.current with
      | None -> false
      | Some v ->
          established_in s (View.id v) && not (Gid.Set.mem (View.id v) s.registered))
  | Confirm -> (
      match Seqs.nth1_opt s.order s.nextconfirm with
      | Some l -> Label.Set.mem l s.safe_labels
      | None -> false)
  | Brcv (q, a) -> (
      s.nextreport < s.nextconfirm
      &&
      match Seqs.nth1_opt s.order s.nextreport with
      | Some l -> (
          Proc.equal q l.Label.origin
          &&
          match Label.Map.find_opt l s.content with
          | Some a' -> String.equal a a'
          | None -> false)
      | None -> false)

let step s = function
  | Bcast a -> { s with delay = Seqs.append s.delay a }
  | Label_msg a -> (
      match s.current with
      | None -> s
      | Some v ->
          let l = Label.make ~id:(View.id v) ~seqno:s.nextseqno ~origin:s.me in
          {
            s with
            content = Label.Map.add l a s.content;
            buffer = Seqs.append s.buffer l;
            nextseqno = s.nextseqno + 1;
            delay = Seqs.remove_head s.delay;
          })
  | Dvs_gpsnd (To_msg.Data (_, _)) -> { s with buffer = Seqs.remove_head s.buffer }
  | Dvs_gpsnd (To_msg.Summ _) -> { s with status = Collect }
  | Dvs_gprcv (_, To_msg.Data (l, a)) ->
      note_order
        { s with content = Label.Map.add l a s.content; order = Seqs.append s.order l }
  | Dvs_gprcv (q, To_msg.Summ x) -> (
      let s =
        {
          s with
          content = Label.Map.union_left s.content x.Summary.con;
          gotstate = Proc.Map.add q x s.gotstate;
        }
      in
      match s.current with
      | Some v
        when s.status = Collect
             && Proc.Set.equal
                  (Proc.Set.of_list (List.map fst (Proc.Map.bindings s.gotstate)))
                  (View.set v) ->
          note_order
            {
              s with
              nextconfirm = Summary.maxnextconfirm s.gotstate;
              order = Summary.fullorder s.gotstate;
              highprimary = View.id v;
              status = Normal;
              established = Gid.Set.add (View.id v) s.established;
            }
      | Some _ | None -> s)
  | Dvs_safe (_, To_msg.Data (l, _)) ->
      { s with safe_labels = Label.Set.add l s.safe_labels }
  | Dvs_safe (q, To_msg.Summ _) -> (
      let s = { s with safe_exch = Proc.Set.add q s.safe_exch } in
      match s.current with
      | Some v when Proc.Set.equal s.safe_exch (View.set v) ->
          let exchanged =
            Seqs.fold_left
              (fun acc l -> Label.Set.add l acc)
              Label.Set.empty
              (Summary.fullorder s.gotstate)
          in
          { s with safe_labels = Label.Set.union s.safe_labels exchanged }
      | Some _ | None -> s)
  | Dvs_newview v ->
      {
        s with
        current = Some v;
        nextseqno = 1;
        buffer = Seqs.empty;
        gotstate = Proc.Map.empty;
        safe_exch = Proc.Set.empty;
        safe_labels = Label.Set.empty;
        status = Send;
      }
  | Dvs_register -> (
      match s.current with
      | None -> s
      | Some v -> { s with registered = Gid.Set.add (View.id v) s.registered })
  | Confirm -> { s with nextconfirm = s.nextconfirm + 1 }
  | Brcv (_, _) -> { s with nextreport = s.nextreport + 1 }

let is_external = function
  | Bcast _ | Brcv _ | Dvs_gpsnd _ | Dvs_gprcv _ | Dvs_safe _ | Dvs_newview _
  | Dvs_register ->
      true
  | Label_msg _ | Confirm -> false

let equal_state a b =
  Proc.equal a.me b.me
  && Option.equal View.equal a.current b.current
  && a.status = b.status
  && Label.Map.equal String.equal a.content b.content
  && Int.equal a.nextseqno b.nextseqno
  && Seqs.equal Label.equal a.buffer b.buffer
  && Label.Set.equal a.safe_labels b.safe_labels
  && Seqs.equal Label.equal a.order b.order
  && Int.equal a.nextconfirm b.nextconfirm
  && Int.equal a.nextreport b.nextreport
  && Gid.equal a.highprimary b.highprimary
  && Proc.Map.equal Summary.equal a.gotstate b.gotstate
  && Proc.Set.equal a.safe_exch b.safe_exch
  && Gid.Set.equal a.registered b.registered
  && Seqs.equal String.equal a.delay b.delay
  && Gid.Set.equal a.established b.established
  && Gid.Map.equal (Seqs.equal Label.equal) a.buildorder b.buildorder

let pp_state ppf s =
  Format.fprintf ppf
    "@[<v>me=%a view=%a status=%a high=%a@ order=%a nextconfirm=%d nextreport=%d@ \
     content=%d labels, safe=%d labels@]"
    Proc.pp s.me
    (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "⊥") View.pp)
    s.current pp_status s.status Gid.pp s.highprimary (Seqs.pp Label.to_buffer) s.order
    s.nextconfirm s.nextreport
    (Label.Map.cardinal s.content)
    (Label.Set.cardinal s.safe_labels)

(* Canonical full-state rendering of all seventeen fields — used as the
   dedup key for exhaustive exploration. *)
let key_to_buffer buf s =
  let str = Buffer.add_string buf in
  let gids set = Render.iter ~sep:";" Gid.Set.iter Gid.to_buffer buf set in
  let labels = Seqs.to_buffer Label.to_buffer in
  str "me";
  Proc.to_buffer buf s.me;
  str "|cv";
  Render.option ~none:"⊥" View.to_buffer buf s.current;
  str "|st";
  str (status_name s.status);
  str "|co[";
  Render.bindings ~sep:";" Label.Map.iter Label.to_buffer "="
    Buffer.add_string buf s.content;
  str "]|ns";
  Render.int buf s.nextseqno;
  str "|bf";
  labels buf s.buffer;
  str "|sl{";
  Render.iter ~sep:";" Label.Set.iter Label.to_buffer buf s.safe_labels;
  str "}|or";
  labels buf s.order;
  str "|nc";
  Render.int buf s.nextconfirm;
  str "|nr";
  Render.int buf s.nextreport;
  str "|hp";
  Gid.to_buffer buf s.highprimary;
  str "|gs[";
  Render.bindings ~sep:";" Proc.Map.iter Proc.to_buffer ":"
    Summary.to_buffer buf s.gotstate;
  str "]|se";
  Proc.Set.to_buffer buf s.safe_exch;
  str "|rg{";
  gids s.registered;
  str "}|dl";
  Seqs.to_buffer Buffer.add_string buf s.delay;
  str "|es{";
  gids s.established;
  str "}|bo[";
  Render.bindings ~sep:";" Gid.Map.iter Gid.to_buffer ":" labels buf
    s.buildorder;
  str "]"

let state_key s = Render.to_string key_to_buffer s

(* Flat canonical codec over the same seventeen fields [state_key]
   renders; injective up to structural state equality. *)
let codec_state : state Check.Codec.f =
  let open Check.Codec in
  let status_c =
    {
      wr =
        (fun b st ->
          byte.wr b
            (match st with Normal -> 0 | Send -> 1 | Collect -> 2));
      rd =
        (fun r ->
          match byte.rd r with
          | 0 -> Normal
          | 1 -> Send
          | 2 -> Collect
          | _ -> raise (Malformed "status tag"));
    }
  in
  let content_c = label_map string in
  let labels_c = seqs label in
  let gotstate_c = proc_map summary in
  let buildorder_c = gid_map (seqs label) in
  {
    wr =
      (fun b s ->
        proc.wr b s.me;
        (option view).wr b s.current;
        status_c.wr b s.status;
        content_c.wr b s.content;
        int.wr b s.nextseqno;
        labels_c.wr b s.buffer;
        label_set.wr b s.safe_labels;
        labels_c.wr b s.order;
        int.wr b s.nextconfirm;
        int.wr b s.nextreport;
        gid.wr b s.highprimary;
        gotstate_c.wr b s.gotstate;
        proc_set.wr b s.safe_exch;
        gid_set.wr b s.registered;
        (seqs string).wr b s.delay;
        gid_set.wr b s.established;
        buildorder_c.wr b s.buildorder);
    rd =
      (fun r ->
        let me = proc.rd r in
        let current = (option view).rd r in
        let status = status_c.rd r in
        let content = content_c.rd r in
        let nextseqno = int.rd r in
        let buffer = labels_c.rd r in
        let safe_labels = label_set.rd r in
        let order = labels_c.rd r in
        let nextconfirm = int.rd r in
        let nextreport = int.rd r in
        let highprimary = gid.rd r in
        let gotstate = gotstate_c.rd r in
        let safe_exch = proc_set.rd r in
        let registered = gid_set.rd r in
        let delay = (seqs string).rd r in
        let established = gid_set.rd r in
        let buildorder = buildorder_c.rd r in
        {
          me;
          current;
          status;
          content;
          nextseqno;
          buffer;
          safe_labels;
          order;
          nextconfirm;
          nextreport;
          highprimary;
          gotstate;
          safe_exch;
          registered;
          delay;
          established;
          buildorder;
        });
  }

let pp_action ppf = function
  | Bcast a -> Format.fprintf ppf "bcast(%s)" a
  | Label_msg a -> Format.fprintf ppf "label(%s)" a
  | Dvs_gpsnd m -> Format.fprintf ppf "dvs-gpsnd(%a)" To_msg.pp m
  | Dvs_gprcv (q, m) -> Format.fprintf ppf "dvs-gprcv(%a)_%a" To_msg.pp m Proc.pp q
  | Dvs_safe (q, m) -> Format.fprintf ppf "dvs-safe(%a)_%a" To_msg.pp m Proc.pp q
  | Dvs_newview v -> Format.fprintf ppf "dvs-newview(%a)" View.pp v
  | Dvs_register -> Format.pp_print_string ppf "dvs-register"
  | Confirm -> Format.pp_print_string ppf "confirm"
  | Brcv (q, a) -> Format.fprintf ppf "brcv(%s)_%a" a Proc.pp q
