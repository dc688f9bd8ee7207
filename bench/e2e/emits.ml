(* Per-profile EMIT sets. A profile's emissions reach the client through
   whichever REPORTs happen to drain them, so only the union over a run
   is comparable between the loopback run and the in-process reference:
   the set of (eseq, post id, emit time) triples per profile. *)

type t = (string, string list ref) Hashtbl.t

let create () : t = Hashtbl.create 1024

(* [add_response t ~profile lines] keeps the EMIT lines of one REPORT
   response: "<seq> EMIT <eseq> <id> <time-hex>" becomes
   "<eseq> <id> <time-hex>". *)
let add_response (t : t) ~profile lines =
  let cell =
    match Hashtbl.find_opt t profile with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t profile r;
      r
  in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.length line > i + 6 && String.sub line (i + 1) 5 = "EMIT " ->
        cell := String.sub line (i + 6) (String.length line - i - 6) :: !cell
      | Some _ | None -> ())
    lines

let count (t : t) = Hashtbl.fold (fun _ r acc -> acc + List.length !r) t 0

let sorted_set r = List.sort_uniq String.compare !r

(* Mismatches as (profile, missing from [actual], unexpected in [actual])
   counts, profiles in name order; [] when the sets agree. Duplicates in
   [actual] count as unexpected: an emission reported twice is a bug. *)
let diff ~(expected : t) ~(actual : t) =
  let profiles =
    Hashtbl.fold (fun k _ acc -> k :: acc) expected []
    @ Hashtbl.fold (fun k _ acc -> k :: acc) actual []
    |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun p ->
      let get t = match Hashtbl.find_opt t p with Some r -> r | None -> ref [] in
      let e = sorted_set (get expected) and a = get actual in
      let a_set = sorted_set a in
      let dups = List.length !a - List.length a_set in
      let rec walk e a missing extra =
        match (e, a) with
        | [], [] -> (missing, extra)
        | _ :: e', [] -> walk e' [] (missing + 1) extra
        | [], _ :: a' -> walk [] a' missing (extra + 1)
        | x :: e', y :: a' ->
          let c = String.compare x y in
          if c = 0 then walk e' a' missing extra
          else if c < 0 then walk e' a (missing + 1) extra
          else walk e a' missing (extra + 1)
      in
      let missing, extra = walk e a_set 0 0 in
      if missing = 0 && extra + dups = 0 then None else Some (p, missing, extra + dups))
    profiles
