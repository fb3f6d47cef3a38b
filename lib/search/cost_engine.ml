module Mapping = Legodb_mapping.Mapping
module Xschema = Legodb_xtype.Xschema
module Xq_translate = Legodb_mapping.Xq_translate
module Rschema = Legodb_relational.Rschema
module Optimizer = Legodb_optimizer.Optimizer
module Cost = Legodb_optimizer.Cost
module Logical = Legodb_optimizer.Logical

exception Cost_error of string

type fault = { stage : string; exn_class : string; message : string }

(* internal carrier: costing failures travel as [Fault] inside the
   engine so the public entry points can both account them and decide
   whether to surface a [Cost_error] ([cost]) or a value ([cost_result]) *)
exception Fault of fault

type snapshot = {
  evaluations : int;
  hits : int;
  misses : int;
  faults : int;
  t_mapping : float;
  t_translate : float;
  t_optimize : float;
}

let empty_snapshot =
  {
    evaluations = 0;
    hits = 0;
    misses = 0;
    faults = 0;
    t_mapping = 0.;
    t_translate = 0.;
    t_optimize = 0.;
  }

(* one field-wise operation over two snapshots: [merge] sums a shard's
   counters into the engine's, [diff] subtracts *)
let combine fi ff (a : snapshot) (b : snapshot) : snapshot =
  {
    evaluations = fi a.evaluations b.evaluations;
    hits = fi a.hits b.hits;
    misses = fi a.misses b.misses;
    faults = fi a.faults b.faults;
    t_mapping = ff a.t_mapping b.t_mapping;
    t_translate = ff a.t_translate b.t_translate;
    t_optimize = ff a.t_optimize b.t_optimize;
  }

let diff = combine ( - ) ( -. )

(* A memo key with its hash, taken once: a key runs to kilobytes, and a
   neighbour that keeps its parent's key probes the memo table with it
   without hashing it again. *)
type key = { bytes : string; hash : int }

module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b = a.hash = b.hash && String.equal a.bytes b.bytes
  let hash k = k.hash
end)

let key_of_bytes bytes = { bytes; hash = Hashtbl.hash bytes }

(* what every view of one engine shares *)
type shared = {
  params : Cost.params option;
  workload_indexes : bool;
  queries : (Legodb_xquery.Xq_ast.t * float) array;
  updates : (Legodb_xquery.Xq_ast.update * float) array;
  memoize : bool;
  oracle : bool;
  inject : (string -> bool) option;
  per_query_timeout_ms : float option;
  clock : unit -> float;
  cache : float Memo.t;
  (* [frozen] marks a fan-out in flight: the shared table is then
     read-only (the shards probe it, nothing writes it) and costing
     through the engine's own view is a caller bug.  [pool] is the
     persistent worker shards, one per worker slot, reused across
     fan-outs, strategies and searches — [merge] resets a shard instead
     of consuming it. *)
  mutable frozen : bool;
  mutable pool : t array;
}

(* A view of the engine: its new memo entries go to [delta], its
   counters to [snap].  The engine's own view has the shared table as
   its delta; a worker shard's delta is private until [merge]. *)
and t = { env : shared; delta : float Memo.t; mutable snap : snapshot }

let create ?params ?(workload_indexes = false) ?(updates = [])
    ?(memoize = true) ?(oracle = false) ?inject ?per_query_timeout_ms
    ?(clock = Unix.gettimeofday) ~workload () =
  let env =
    {
      params;
      workload_indexes;
      queries = Array.of_list workload;
      updates = Array.of_list updates;
      memoize;
      oracle;
      inject;
      per_query_timeout_ms;
      clock;
      cache = Memo.create 256;
      frozen = false;
      pool = [||];
    }
  in
  { env; delta = env.cache; snap = empty_snapshot }

let owns v = v.delta == v.env.cache

(* the view's delta, then (for a shard) the shared table *)
let find v k =
  match Memo.find_opt v.delta k with
  | Some _ as r -> r
  | None -> if owns v then None else Memo.find_opt v.env.cache k

(* The cache key of one statement: its kind and position in the
   workload, then the sorted fingerprints of the tables it touches,
   framed like the fingerprints themselves ({!Mapping.frame_string}) in
   one string of the exact length.  Sorting the fingerprints (not the table
   names) keeps the key independent of the fresh type names a
   transformation order happens to generate, so structurally identical
   configurations reached by different step orders hit the same entry.
   Each touched table costs one O(1) probe of [fps].  A table without a
   fingerprint is named with tag [?], which no fingerprint (tag [W])
   begins with. *)
let key ~kind ~index fps tables =
  let fp t =
    match Mapping.find_fingerprint fps t with Some f -> f | None -> "?" ^ t
  in
  key_of_bytes
    (Mapping.frame_string kind ~index
       (List.sort String.compare (List.map fp tables)))

(* A costed candidate's derived state: its mapping, the fingerprints
   of its catalog and of the catalog the optimizer saw (the same
   without [~workload_indexes]), every statement's translation, and
   every memo key (none without memoization).  Its neighbours are
   prepared from it; it is never written after it is made, so workers
   read it freely. *)
type priced = {
  p_mapping : Mapping.t;
  p_fps : Mapping.fingerprints;
  p_ofps : Mapping.fingerprints;
  p_queries : Logical.query Xq_translate.translation array;
  p_updates : Logical.update Xq_translate.translation array;
  p_qkeys : key array;
  p_ukeys : key array;
  p_cost : float;
}

let priced_cost p = p.p_cost

(* A candidate prepared once: mapped, its tables fingerprinted and the
   catalog fingerprint derived from them, from its parent's priced
   state when it has one.  Beam's dedupe pass prepares every raw
   neighbour and hands the survivors to the costing pass, so nothing is
   mapped or fingerprinted twice. *)
type prepared = {
  schema : Xschema.t;
  mapped : (Mapping.t * Mapping.fingerprints, string list) result;
  fingerprint : string;
  fingerprint_hash : int;
  parent : priced option;
}

let fingerprint p = p.fingerprint
let fingerprint_hash p = p.fingerprint_hash

let diverged what =
  invalid_arg
    ("Cost_engine: derived " ^ what ^ " diverges from a fresh derivation")

(* the oracle's check of a mapping and fingerprints derived from a
   parent against the from-scratch ones *)
let check_mapped schema (m, fps) =
  match Mapping.of_pschema schema with
  | Error _ -> diverged "mapping (fresh mapping fails)"
  | Ok m0 ->
      if
        not
          (compare m.Mapping.catalog m0.Mapping.catalog = 0
          && m.Mapping.transparent = m0.Mapping.transparent
          && m.Mapping.renamed = m0.Mapping.renamed
          && m.Mapping.ordered = m0.Mapping.ordered)
      then diverged "mapping";
      if
        Mapping.fingerprint_list fps
        <> Mapping.table_fingerprints m0.Mapping.catalog
      then diverged "fingerprints"

(* Map the candidate, fingerprint its tables and derive the catalog
   fingerprint, charged to the view's [t_mapping]; from [parent]'s
   state when given.  An unmappable schema's fingerprint is its text
   under tag [X], which no catalog fingerprint (tag [C]) begins with.
   Only beam deduplicates on the catalog fingerprint; the schema-taking
   entry points never read it, and prepare with [~catalog:false]. *)
let prepare_into ?(catalog = true) ?parent v schema =
  let t = v.env in
  let t0 = t.clock () in
  let mapping =
    match parent with
    | Some p -> Mapping.derive ~parent:p.p_mapping schema
    | None -> Mapping.of_pschema schema
  in
  let mapped, fingerprint =
    match mapping with
    | Error es when not catalog -> (Error es, "")
    | Error es -> (Error es, "X" ^ Xschema.to_string schema)
    | Ok m ->
        let fps =
          Mapping.fingerprints
            ?parent:(Option.map (fun p -> p.p_fps) parent)
            m.Mapping.catalog
        in
        ( Ok (m, fps),
          if catalog then
            Mapping.catalog_fingerprint (Mapping.fingerprint_list fps)
          else "" )
  in
  v.snap <- { v.snap with t_mapping = v.snap.t_mapping +. (t.clock () -. t0) };
  (match (t.oracle, parent, mapped) with
  | true, Some _, Ok mf -> check_mapped schema mf
  | true, Some _, Error _ -> (
      match Mapping.of_pschema schema with
      | Ok _ -> diverged "mapping (derived mapping fails)"
      | Error _ -> ())
  | _ -> ());
  (* hashed here, in the parallel pass, rather than by each probe of the
     sequential dedupe: a catalog fingerprint runs to kilobytes *)
  let fingerprint_hash = if catalog then Hashtbl.hash fingerprint else 0 in
  { schema; mapped; fingerprint; fingerprint_hash; parent }

(* One costing pass over a prepared candidate on a view: its probes
   go to the view's delta and then the shared table, its new entries
   and counter bumps to the view.

   [check] is the cooperative cancellation point (see Budget): it runs
   before the evaluation is counted, so an exhausted budget abandons
   the configuration without charging it.  Failures leave as [Fault]
   records naming the pipeline stage and the exception class, so the
   search can account each skipped candidate instead of silently
   dropping it.

   A candidate prepared from a parent takes each statement's
   translation from the parent's when its reads are unchanged
   ({!Xq_translate.derive}), and the parent's memo key too when every
   table the statement touches kept its fingerprint; oracle mode checks
   both against fresh ones. *)
let cost_into ?(check = ignore) v p =
  let t = v.env in
  check ();
  v.snap <- { v.snap with evaluations = v.snap.evaluations + 1 };
  (match t.inject with
  | Some inject when inject (Xschema.to_string p.schema) ->
      raise
        (Fault
           {
             stage = "inject";
             exn_class = "Injected";
             message = "injected fault";
           })
  | _ -> ());
  let now = t.clock in
  let m, table_fps =
    match p.mapped with
    | Error es ->
        raise
          (Fault
             {
               stage = "mapping";
               exn_class = "Mapping_error";
               message = String.concat "; " es;
             })
    | Ok r -> r
  in
  let parent = p.parent in
  let from arr i =
    match parent with Some pp -> Some (arr pp).(i) | None -> None
  in
  let t1 = now () in
  let queries, updates =
    match
      ( Array.mapi
          (fun i (q, _) ->
            Xq_translate.derive ?parent:(from (fun pp -> pp.p_queries) i) m q)
          t.queries,
        Array.mapi
          (fun i (u, _) ->
            Xq_translate.derive_update
              ?parent:(from (fun pp -> pp.p_updates) i)
              m u)
          t.updates )
    with
    | qs, us -> (qs, us)
    | exception Xq_translate.Untranslatable msg ->
        raise
          (Fault
             {
               stage = "translate";
               exn_class = "Untranslatable";
               message = msg;
             })
  in
  v.snap <- { v.snap with t_translate = v.snap.t_translate +. (now () -. t1) };
  if t.oracle && parent <> None then begin
    let agrees tr (tr0 : _ Xq_translate.translation) =
      if
        not
          (compare tr.Xq_translate.translated tr0.translated = 0
          && tr.Xq_translate.tables = tr0.tables
          && Mapping.same_reads tr.Xq_translate.reads tr0.reads)
      then diverged "translation"
    in
    Array.iteri
      (fun i tr -> agrees tr (Xq_translate.derive m (fst t.queries.(i))))
      queries;
    Array.iteri
      (fun i tr -> agrees tr (Xq_translate.derive_update m (fst t.updates.(i))))
      updates
  end;
  let catalog =
    if t.workload_indexes then
      Rschema.add_indexes m.Mapping.catalog
        (Xq_translate.equality_columns
           (Array.to_list
              (Array.map (fun q -> q.Xq_translate.translated) queries)))
    else m.Mapping.catalog
  in
  (* fingerprints are those of the catalog the optimizer sees, so
     workload-granted indexes are part of the invalidation key *)
  let ofps =
    if not t.memoize then table_fps
    else if t.workload_indexes then begin
      let t0 = now () in
      let fps =
        Mapping.fingerprints
          ?parent:(Option.map (fun pp -> pp.p_ofps) parent)
          catalog
      in
      v.snap <- { v.snap with t_mapping = v.snap.t_mapping +. (now () -. t0) };
      fps
    end
    else table_fps
  in
  (* a statement's key is its parent's when the translation is the
     parent's and every table it touches kept its fingerprint *)
  let key_of kind keys_of index (tr : _ Xq_translate.translation) theirs =
    let k =
      match (parent, theirs) with
      | Some pp, Some ptr
        when tr.Xq_translate.translated == ptr.Xq_translate.translated
             && Array.length (keys_of pp) > index
             && List.for_all (Mapping.kept_fingerprint ofps) tr.tables ->
          (keys_of pp).(index)
      | _ -> key ~kind ~index ofps tr.Xq_translate.tables
    in
    if t.oracle && parent <> None then begin
      let k0 =
        key ~kind ~index (Mapping.fingerprints catalog) tr.Xq_translate.tables
      in
      if not (String.equal k.bytes k0.bytes && k.hash = k0.hash) then
        diverged "memo key"
    end;
    k
  in
  let costed kind index key fresh =
    let compute () =
      let t2 = now () in
      let x = fresh () in
      let dt = now () -. t2 in
      v.snap <- { v.snap with t_optimize = v.snap.t_optimize +. dt };
      (* a statement that overran the per-query bound poisons the whole
         configuration: costing it to completion was unavoidable (the
         optimizer is not preemptible between [?check] polls), but the
         remaining statements are abandoned and the candidate is
         accounted as a structured fault instead of eating the budget *)
      (match t.per_query_timeout_ms with
      | Some limit when dt *. 1000. > limit ->
          raise
            (Fault
               {
                 stage = "optimize";
                 exn_class = "Cost_timeout";
                 message =
                   Printf.sprintf
                     "statement %c%d took %.1f ms (per-query timeout %.1f ms)"
                     kind index (dt *. 1000.) limit;
               })
      | _ -> ());
      x
    in
    match key with
    | None -> compute ()
    | Some k -> (
        match find v k with
        | Some x ->
            if t.oracle then begin
              let fresh_v = compute () in
              if not (Float.equal x fresh_v) then
                invalid_arg
                  (Printf.sprintf
                     "Cost_engine: cache divergence on statement %c%d (cached \
                      %h, fresh %h)"
                     kind index x fresh_v)
            end;
            v.snap <- { v.snap with hits = v.snap.hits + 1 };
            x
        | None ->
            let x = compute () in
            v.snap <- { v.snap with misses = v.snap.misses + 1 };
            Memo.replace v.delta k x;
            x)
  in
  let keys kind keys_of trs theirs =
    if not t.memoize then [||]
    else Array.mapi (fun i tr -> key_of kind keys_of i tr (theirs i)) trs
  in
  (* queries first, then updates, each in workload order and each sum
     started from zero: one order for memoized and uncached engines, so
     a warm engine and a cold cost agree bit for bit *)
  let qkeys =
    keys 'q' (fun pp -> pp.p_qkeys) queries (from (fun pp -> pp.p_queries))
  in
  let total = ref 0. in
  Array.iteri
    (fun i (tr : _ Xq_translate.translation) ->
      let key = if t.memoize then Some qkeys.(i) else None in
      let x =
        costed 'q' i key (fun () ->
            Optimizer.query_scalar_cost ?params:t.params catalog tr.translated)
      in
      total := !total +. (snd t.queries.(i) *. x))
    queries;
  let ukeys =
    keys 'u' (fun pp -> pp.p_ukeys) updates (from (fun pp -> pp.p_updates))
  in
  let wtotal = ref 0. in
  Array.iteri
    (fun i (tr : _ Xq_translate.translation) ->
      let key = if t.memoize then Some ukeys.(i) else None in
      let x =
        costed 'u' i key (fun () ->
            Optimizer.write_cost ?params:t.params catalog tr.translated)
      in
      wtotal := !wtotal +. (snd t.updates.(i) *. x))
    updates;
  {
    p_mapping = m;
    p_fps = table_fps;
    p_ofps = ofps;
    p_queries = queries;
    p_updates = updates;
    p_qkeys = qkeys;
    p_ukeys = ukeys;
    p_cost = !total +. !wtotal;
  }

let check_thawed v =
  if owns v && v.env.frozen then
    invalid_arg
      "Cost_engine: engine is frozen (fan-out in flight); cost through its \
       worker shards instead"

let prepare ?parent v schema =
  check_thawed v;
  prepare_into ?parent v schema

let price ?check v p =
  check_thawed v;
  match cost_into ?check v p with
  | r -> Ok r
  | exception Fault f ->
      v.snap <- { v.snap with faults = v.snap.faults + 1 };
      Error f

(* the schema-taking entry points poll [check] before preparing, so an
   exhausted budget abandons the candidate before any work *)
let price_schema ?(check = ignore) ?parent v schema =
  check_thawed v;
  check ();
  price v (prepare_into ~catalog:false ?parent v schema)

let cost_result ?check v schema =
  Result.map priced_cost (price_schema ?check v schema)

let cost ?check v schema =
  match cost_result ?check v schema with
  | Ok c -> c
  | Error f -> raise (Cost_error (Printf.sprintf "%s: %s" f.stage f.message))

let cost_opt ?check v schema =
  match cost_result ?check v schema with Ok c -> Some c | Error _ -> None

(* ------------------------------------------------------------------ *)
(* worker shards                                                       *)
(* ------------------------------------------------------------------ *)

(* persistent per-worker shards: grown on demand, never shrunk, reused
   across fan-outs (merge resets a shard rather than consuming it) *)
let worker_shards v n =
  let e = v.env in
  let n = max n 1 in
  let have = Array.length e.pool in
  if have < n then
    e.pool <-
      Array.init n (fun i ->
          if i < have then e.pool.(i)
          else { env = e; delta = Memo.create 64; snap = empty_snapshot });
  if Array.length e.pool = n then e.pool else Array.sub e.pool 0 n

let freeze v =
  if v.env.frozen then invalid_arg "Cost_engine: already frozen";
  v.env.frozen <- true

let reset sh =
  Memo.reset sh.delta;
  sh.snap <- empty_snapshot

(* abandon a fan-out wholesale: nothing a worker computed — cache
   entries or counters — reaches the engine, exactly as if the shards
   had been dropped on the floor (but reusable) *)
let discard_shards v =
  Array.iter reset v.env.pool;
  v.env.frozen <- false

let merge v shards =
  (* every view is checked before anything is touched, so a rejected
     merge leaves the engine — cache, counters, frozen state — as it
     was *)
  if (not (owns v)) || List.exists (fun sh -> sh.env != v.env || owns sh) shards
  then invalid_arg "Cost_engine.merge: not this engine's worker shards";
  v.env.frozen <- false;
  List.iter
    (fun sh ->
      Memo.iter
        (fun k x -> if not (Memo.mem v.delta k) then Memo.add v.delta k x)
        sh.delta;
      v.snap <- combine ( + ) ( +. ) v.snap sh.snap;
      (* a merged shard must not contribute twice; resetting (not
         consuming) it is what lets the persistent pool shards be
         reused by the next fan-out *)
      reset sh)
    shards

(* sorted so a snapshot of the cache is deterministic: the on-disk
   checkpoint of a given search state is byte-identical regardless of
   hash-table iteration order *)
let cache_entries v =
  Memo.fold (fun k x acc -> (k.bytes, x) :: acc) v.env.cache []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let seed_cache v entries =
  List.iter (fun (k, x) -> Memo.replace v.env.cache (key_of_bytes k) x) entries

let snapshot v = v.snap

let hit_rate (s : snapshot) =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0. else float_of_int s.hits /. float_of_int lookups

let pp_snapshot fmt (s : snapshot) =
  Format.fprintf fmt
    "%d configurations costed, %d statement costings (%d cached, %.0f%% hit \
     rate); mapping %.3fs, translate %.3fs, optimize %.3fs"
    s.evaluations (s.hits + s.misses) s.hits
    (100. *. hit_rate s)
    s.t_mapping s.t_translate s.t_optimize;
  if s.faults > 0 then
    Format.fprintf fmt "; %d uncostable configuration%s skipped" s.faults
      (if s.faults = 1 then "" else "s")
