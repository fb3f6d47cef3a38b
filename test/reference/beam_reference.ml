(* Frozen reference: Search.beam's level loop as it ran before each
   candidate was prepared once — sequential, unbudgeted, without
   checkpoints — mapping every raw neighbour to deduplicate it by the
   frozen text fingerprint, then costing the survivors from their
   schemas.  The suites hold Search.beam to the same result and the
   same number of configurations costed, and use the configurations it
   visits as the corpus of the fingerprint differential. *)

open Legodb_xtype
open Legodb_transform
module Mapping = Legodb_mapping.Mapping
module Cost_engine = Legodb_search.Cost_engine

let fingerprint schema =
  match Mapping.of_pschema schema with
  | Error _ -> Xschema.to_string schema
  | Ok m -> Fingerprint_reference.catalog_fingerprint m.Mapping.catalog

let beam ?(kinds = Space.default_kinds) ?(width = 4) ?(patience = 3)
    ?(max_iterations = 200) eng schema =
  let initial_cost =
    match Cost_engine.cost_result eng schema with
    | Ok c -> c
    | Error _ -> invalid_arg "Beam_reference.beam: initial configuration"
  in
  let visited = ref [ schema ] in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (fingerprint schema) ();
  let best = ref (schema, initial_cost) in
  let rec level i barren frontier =
    if i < max_iterations && barren < patience && frontier <> [] then begin
      let level_seen = Hashtbl.create 32 in
      let raw =
        List.concat_map (fun (s, _) -> Space.neighbors ~kinds s) frontier
      in
      let fingerprinted = List.map (fun (_, s') -> (s', fingerprint s')) raw in
      let deduped =
        List.filter
          (fun (_, fp) ->
            if Hashtbl.mem seen fp || Hashtbl.mem level_seen fp then false
            else begin
              Hashtbl.replace level_seen fp ();
              true
            end)
          fingerprinted
      in
      let candidates =
        List.filter_map
          (fun (s', fp) ->
            visited := s' :: !visited;
            match Cost_engine.cost_result eng s' with
            | Ok c -> Some (s', c, fp)
            | Error _ -> None)
          deduped
      in
      let sorted =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) candidates
      in
      let keep =
        List.filteri (fun j _ -> j < width) sorted
        |> List.map (fun (s, c, fp) ->
               Hashtbl.replace seen fp ();
               (s, c))
      in
      match keep with
      | [] -> ()
      | (s0, c0) :: _ ->
          let improved = c0 < snd !best in
          if improved then best := (s0, c0);
          level (i + 1) (if improved then 0 else barren + 1) keep
    end
  in
  level 0 0 [ (schema, initial_cost) ];
  (!best, List.rev !visited)
