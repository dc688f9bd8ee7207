type config = {
  queue_capacity : int;
  tick_steps : int option;
}

type counters = {
  acked : int;
  shed : int;
  applied : int;
}

type t = {
  config : config;
  table : (string, Profile.t) Hashtbl.t;
  mutable order : string list;  (* sorted names; rebuilt when dirty *)
  mutable order_dirty : bool;
  mutable backlog : int;
  mutable acked : int;
  mutable shed : int;
  mutable applied : int;
}

let create config =
  if config.queue_capacity < 1 then invalid_arg "Shard.create: queue_capacity < 1";
  (match config.tick_steps with
  | Some n when n < 1 -> invalid_arg "Shard.create: tick_steps < 1"
  | _ -> ());
  {
    config;
    table = Hashtbl.create 64;
    order = [];
    order_dirty = false;
    backlog = 0;
    acked = 0;
    shed = 0;
    applied = 0;
  }

let config t = t.config

let add t profile =
  let name = Profile.name profile in
  if Hashtbl.mem t.table name then
    invalid_arg (Printf.sprintf "Shard.add: duplicate profile %S" name);
  Hashtbl.add t.table name profile;
  t.order <- name :: t.order;
  t.order_dirty <- true;
  t.backlog <- t.backlog + Profile.pending profile

let remove t name =
  match Hashtbl.find_opt t.table name with
  | None -> false
  | Some profile ->
    Hashtbl.remove t.table name;
    t.order <- List.filter (fun n -> n <> name) t.order;
    t.backlog <- t.backlog - Profile.pending profile;
    true

let find t name = Hashtbl.find_opt t.table name
let profile_count t = Hashtbl.length t.table

let sorted_order t =
  if t.order_dirty then begin
    t.order <- List.sort String.compare t.order;
    t.order_dirty <- false
  end;
  t.order

let profiles t =
  List.map (fun name -> Hashtbl.find t.table name) (sorted_order t)

let backlog t = t.backlog
let counters t = { acked = t.acked; shed = t.shed; applied = t.applied }

let crash_count t =
  Hashtbl.fold (fun _ p acc -> acc + Profile.crashes p) t.table 0

let quarantined_count t =
  Hashtbl.fold (fun _ p acc -> acc + if Profile.quarantined p then 1 else 0)
    t.table 0

let offer t profile post =
  if t.backlog >= t.config.queue_capacity || Profile.quarantined profile then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    Profile.offer profile post;
    t.backlog <- t.backlog + 1;
    t.acked <- t.acked + 1;
    true
  end

let tick ?chaos ?deadline t =
  let budget =
    match (t.config.tick_steps, deadline) with
    | None, None -> Util.Budget.unlimited
    | max_steps, deadline -> Util.Budget.create ?deadline ?max_steps ()
  in
  let applied = ref 0 in
  let rec walk = function
    | [] -> ()
    | name :: rest ->
      (match Hashtbl.find_opt t.table name with
      | None -> ()
      | Some profile ->
        if not (Profile.quarantined profile) then begin
          let n = Profile.process ?chaos ~budget profile in
          applied := !applied + n;
          t.backlog <- t.backlog - n
        end);
      if not (Util.Budget.should_stop budget) then walk rest
  in
  walk (sorted_order t);
  t.applied <- t.applied + !applied;
  !applied

let magic = "mqdp-shard-snapshot"
let version = 2

let snapshot t =
  Util.Fs.seal ~magic ~version @@ fun b ->
  let line fmt = Util.Fs.line b fmt in
  line "config %d %s" t.config.queue_capacity
    (match t.config.tick_steps with None -> "none" | Some n -> string_of_int n);
  line "counters %d %d %d" t.acked t.shed t.applied;
  line "profiles %d" (Hashtbl.length t.table);
  List.iter (fun p -> line "P %s" (String.escaped (Profile.blob p))) (profiles t)

let restore s =
  let cur = Util.Fs.unseal ~magic ~version s in
  let int = Util.Fs.int_field and corrupt = Util.Fs.corrupt in
  let config =
    match Util.Fs.expect cur "config" with
    | [ cap; "none" ] -> { queue_capacity = int "queue_capacity" cap; tick_steps = None }
    | [ cap; steps ] ->
      { queue_capacity = int "queue_capacity" cap; tick_steps = Some (int "tick_steps" steps) }
    | _ -> corrupt "bad config line"
  in
  let acked, shed, applied =
    match Util.Fs.expect cur "counters" with
    | [ a; s; ap ] -> (int "acked" a, int "shed" s, int "applied" ap)
    | _ -> corrupt "bad counters line"
  in
  let count = int "profile count" (Util.Fs.field cur "profiles") in
  let t = try create config with Invalid_argument m -> corrupt "%s" m in
  for _ = 1 to count do
    add t (Profile.of_blob (Util.Fs.unescape (Util.Fs.field cur "P")))
  done;
  if not (Util.Fs.at_end cur) then corrupt "trailing garbage after %d profiles" count;
  (* [add] already recomputed the backlog from the restored journals;
     the monotone totals come from the snapshot. *)
  t.acked <- acked;
  t.shed <- shed;
  t.applied <- applied;
  t
