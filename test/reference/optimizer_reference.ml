(* Frozen reference implementation of the plan-selection core, kept
   verbatim from before the mask-indexed rewrite of {!Optimizer}.

   This module is the executable specification of the optimizer: the
   fast path must return a bit-identical plan, row estimate, and cost
   for every block (the differential qcheck suite in
   test/test_optimizer_perf.ml and `bench optimizer_perf` both assert
   it).  Do not "improve" this file — any intentional change to
   costing semantics must land in {!Optimizer} and here in the same
   commit, or the differential suite will (correctly) fail.

   Everything below is the pre-rewrite code: alias *lists* with O(n)
   membership tests, per-candidate recursive [plan_signature]
   re-stringification, and the [List.init (2^n)] + sort mask
   enumeration. *)

open Legodb_relational
open Legodb_optimizer

type result = { plan : Physical.plan; rows : float; cost : Cost.t }

let dp_limit = 10

(* ------------------------------------------------------------------ *)
(* access-path selection                                               *)
(* ------------------------------------------------------------------ *)

let local_preds (block : Logical.block) alias =
  List.filter
    (fun p ->
      match Logical.pred_aliases p with
      | [ a ] -> String.equal a alias
      | [ a; b ] -> String.equal a alias && String.equal b alias
      | _ -> false)
    block.preds

let table_pages params (tbl : Rschema.table) =
  Cost.pages params (tbl.card *. Rschema.row_width tbl)

(* Signature of a base-table access, for common-subexpression sharing
   across the blocks of one query: a table read with identical local
   predicates in a later block of the same query comes from the buffer
   pool (the multi-query-optimizing Volcano of [16] shares such common
   subexpressions), so it costs CPU but no I/O. *)
let access_signature (rel : Logical.relation) filters access =
  let pred_sig (p : Logical.pred) =
    let op =
      match p.cmp with
      | Logical.C_eq -> "="
      | Logical.C_ne -> "<>"
      | Logical.C_lt -> "<"
      | Logical.C_le -> "<="
      | Logical.C_gt -> ">"
      | Logical.C_ge -> ">="
    in
    let operand = function
      | Logical.O_const v -> Legodb_relational.Rtype.value_to_sql v
      | Logical.O_col (_, c) -> "col:" ^ c
      | Logical.O_param k -> "?" ^ string_of_int k
    in
    snd p.lhs ^ op ^ operand p.rhs
  in
  let access_sig =
    match access with
    | Physical.Seq_scan -> "scan"
    | Physical.Index_probe { column } -> "probe:" ^ column
  in
  String.concat "|"
    (rel.table :: access_sig :: List.sort String.compare (List.map pred_sig filters))

(* Canonical, alias-free signature of a whole sub-plan, so identical
   join subtrees across blocks (e.g. the actor⋈played⋈director⋈directed
   core repeated per partition) are also recognized as shared. *)
let rec plan_signature plan =
  match plan with
  | Physical.Scan { rel; access; filters } ->
      access_signature rel filters access
  | Physical.Join { left; right; conds; extra; _ } ->
      let table_of =
        let map =
          List.map
            (fun (r : Logical.relation) -> (r.alias, r.table))
            (Physical.relations plan)
        in
        fun alias -> Option.value ~default:alias (List.assoc_opt alias map)
      in
      let cond_sig ((la, lc), (ra, rc)) =
        let a = table_of la ^ "." ^ lc and b = table_of ra ^ "." ^ rc in
        if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
      in
      let extra_sig (p : Logical.pred) =
        table_of (fst p.lhs) ^ "." ^ snd p.lhs
      in
      let subs = List.sort compare [ plan_signature left; plan_signature right ] in
      "join("
      ^ String.concat ";" subs
      ^ "|"
      ^ String.concat ","
          (List.sort compare (List.map cond_sig conds @ List.map extra_sig extra))
      ^ ")"

let rec register_accesses shared plan =
  Hashtbl.replace shared (plan_signature plan) ();
  match plan with
  | Physical.Scan _ -> ()
  | Physical.Join { left; right; _ } ->
      register_accesses shared left;
      register_accesses shared right

let access_plan ?shared params env (block : Logical.block)
    (rel : Logical.relation) =
  let tbl = Estimate.table_of env rel.alias in
  let filters = local_preds block rel.alias in
  let rows = Estimate.base_rows env rel.alias in
  let width = Rschema.row_width tbl in
  let tpages = table_pages params tbl in
  let buffered access cpu =
    match shared with
    | Some cache when Hashtbl.mem cache (access_signature rel filters access) ->
        Some { Cost.seeks = 0.; pages_read = 0.; pages_written = 0.; cpu }
    | _ -> None
  in
  let seq =
    let cost =
      match buffered Physical.Seq_scan tbl.card with
      | Some c -> c
      | None ->
          { Cost.seeks = 1.; pages_read = tpages; pages_written = 0.; cpu = tbl.card }
    in
    (Physical.Scan { rel; access = Physical.Seq_scan; filters }, cost)
  in
  let probes =
    List.filter_map
      (fun (p : Logical.pred) ->
        match (p.cmp, p.rhs) with
        | Logical.C_eq, Logical.O_const _
          when Rschema.has_index tbl (snd p.lhs) ->
            let matches =
              Float.max 1. (tbl.card *. Estimate.pred_selectivity env p)
            in
            let clustered = String.equal (snd p.lhs) tbl.key in
            let access = Physical.Index_probe { column = snd p.lhs } in
            let cost =
              match buffered access matches with
              | Some c -> c
              | None ->
                  if clustered then
                    {
                      Cost.seeks = 3.;
                      pages_read = Cost.pages params (matches *. width);
                      pages_written = 0.;
                      cpu = matches;
                    }
                  else
                    {
                      Cost.seeks = 3. +. Float.min matches tpages;
                      pages_read = Float.min matches tpages;
                      pages_written = 0.;
                      cpu = matches;
                    }
            in
            Some
              ( Physical.Scan
                  {
                    rel;
                    access = Physical.Index_probe { column = snd p.lhs };
                    filters;
                  },
                cost )
        | _ -> None)
      filters
  in
  let best =
    List.fold_left
      (fun (bp, bc) (p, c) ->
        if Cost.total params c < Cost.total params bc then (p, c) else (bp, bc))
      seq probes
  in
  (fst best, rows, snd best)

(* ------------------------------------------------------------------ *)
(* join costing                                                        *)
(* ------------------------------------------------------------------ *)

type entry = { e_plan : Physical.plan; e_rows : float; e_cost : Cost.t }

let plan_aliases plan =
  List.map (fun (r : Logical.relation) -> r.alias) (Physical.relations plan)

(* Width of an intermediate result: plans project eagerly, so a tuple
   flowing above a join carries only the columns the block still needs
   (projection columns and predicate columns), plus per-alias record
   bookkeeping. *)
let subtree_width env (block : Logical.block) aliases =
  List.fold_left
    (fun w a ->
      let tbl = Estimate.table_of env a in
      let needed =
        List.sort_uniq compare
          (List.filter_map
             (fun (al, c) -> if String.equal al a then Some c else None)
             block.out
          @ List.concat_map
              (fun (p : Logical.pred) ->
                (if String.equal (fst p.lhs) a then [ snd p.lhs ] else [])
                @
                match p.rhs with
                | Logical.O_col (ra, rc) when String.equal ra a -> [ rc ]
                | _ -> [])
              block.preds)
      in
      let cw =
        List.fold_left
          (fun acc c ->
            match Rschema.find_column tbl c with
            | Some col -> acc +. col.Rschema.stats.avg_width
            | None -> acc)
          0. needed
      in
      w +. cw +. 8.)
    0. aliases

let spanning_preds (block : Logical.block) left_aliases right_aliases =
  let in_l a = List.mem a left_aliases and in_r a = List.mem a right_aliases in
  List.filter
    (fun p ->
      match Logical.pred_aliases p with
      | [ a; b ] -> (in_l a && in_r b) || (in_l b && in_r a)
      | _ -> false)
    block.preds

let split_conds left_aliases preds =
  (* equality column pairs oriented left-first; everything else extra *)
  List.fold_left
    (fun (conds, extra) (p : Logical.pred) ->
      match (p.cmp, p.rhs) with
      | Logical.C_eq, Logical.O_col rc ->
          if List.mem (fst p.lhs) left_aliases then ((p.lhs, rc) :: conds, extra)
          else ((rc, p.lhs) :: conds, extra)
      | _ -> (conds, p :: extra))
    ([], []) preds

let join_candidates ?shared params env (block : Logical.block) left right
    rows_out =
  let la = plan_aliases left.e_plan and ra = plan_aliases right.e_plan in
  let preds = spanning_preds block la ra in
  let conds, extra = split_conds la preds in
  let out = ref [] in
  let push jm cost =
    out :=
      ( {
          e_plan =
            Physical.Join
              { jm; left = left.e_plan; right = right.e_plan; conds; extra };
          e_rows = rows_out;
          e_cost = cost;
        } )
      :: !out
  in
  (* a join subtree already computed by an earlier block of the same
     query is reused from the buffer pool: CPU to re-emit, no I/O *)
  (match shared with
  | Some cache
    when Hashtbl.mem cache
           (plan_signature
              (Physical.Join
                 {
                   jm = Physical.Hash_join;
                   left = left.e_plan;
                   right = right.e_plan;
                   conds;
                   extra;
                 })) ->
      push Physical.Hash_join
        { Cost.seeks = 0.; pages_read = 0.; pages_written = 0.; cpu = rows_out }
  | _ -> ());
  (* hash join: build the right input, probe with the left *)
  let build_pages = Cost.pages params (right.e_rows *. subtree_width env block ra) in
  let spill =
    if build_pages > params.Cost.memory_pages then
      let probe_pages = Cost.pages params (left.e_rows *. subtree_width env block la) in
      {
        Cost.seeks = 2.;
        pages_read = build_pages +. probe_pages;
        pages_written = build_pages +. probe_pages;
        cpu = 0.;
      }
    else Cost.zero
  in
  push Physical.Hash_join
    (Cost.add (Cost.add left.e_cost right.e_cost)
       (Cost.add spill
          {
            Cost.seeks = 0.;
            pages_read = 0.;
            pages_written = 0.;
            cpu = left.e_rows +. right.e_rows +. rows_out;
          }));
  (* index nested loops: right must be a single base relation with an
     index on a join column *)
  (match (ra, conds) with
  | [ ralias ], _ :: _ -> (
      let tbl = Estimate.table_of env ralias in
      let indexed_cond =
        List.find_opt
          (fun ((_, _), (ra2, rc)) ->
            String.equal ra2 ralias && Rschema.has_index tbl rc)
          conds
      in
      match indexed_cond with
      | Some (_, (_, rcol)) ->
          (* tuples fetched per probe are governed by the join key's
             distinct count — local filters are applied only after the
             fetch *)
          let m =
            tbl.card
            /. Float.max 1. (Rschema.column tbl rcol).Rschema.stats.distinct
          in
          let clustered = String.equal rcol tbl.key in
          let per_probe =
            if clustered then
              {
                Cost.seeks = 1.;
                pages_read =
                  Float.max 1.
                    (ceil (m *. Rschema.row_width tbl /. params.Cost.page_size));
                pages_written = 0.;
                cpu = 1. +. m;
              }
            else
              {
                Cost.seeks = 1. +. Float.max 0. (m -. 1.);
                pages_read = Float.max 1. m;
                pages_written = 0.;
                cpu = 1. +. m;
              }
          in
          push
            (Physical.Index_nl { column = rcol })
            (Cost.add left.e_cost
               (Cost.add
                  (Cost.scale left.e_rows per_probe)
                  {
                    Cost.seeks = 0.;
                    pages_read = 0.;
                    pages_written = 0.;
                    cpu = rows_out;
                  }))
      | None -> ())
  | _ -> ());
  (* naive nested loops *)
  push Physical.Nl_join
    (Cost.add left.e_cost
       (Cost.add
          (Cost.scale left.e_rows right.e_cost)
          {
            Cost.seeks = 0.;
            pages_read = 0.;
            pages_written = 0.;
            cpu = left.e_rows *. right.e_rows;
          }));
  !out

let best_of params entries =
  match entries with
  | [] -> None
  | e :: rest ->
      Some
        (List.fold_left
           (fun best e ->
             if Cost.total params e.e_cost < Cost.total params best.e_cost then e
             else best)
           e rest)

(* ------------------------------------------------------------------ *)
(* join ordering                                                       *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go m n = if m = 0 then n else go (m lsr 1) (n + (m land 1)) in
  go m 0

let mask_aliases aliases mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) aliases

let connected (block : Logical.block) la ra =
  spanning_preds block la ra <> []

let optimize_dp ?shared params env block aliases base_entries =
  let n = List.length aliases in
  let full = (1 lsl n) - 1 in
  let table = Hashtbl.create (1 lsl n) in
  List.iteri (fun i e -> Hashtbl.replace table (1 lsl i) e) base_entries;
  let masks = List.init full (fun i -> i + 1) in
  let masks =
    List.sort (fun a b -> Int.compare (popcount a) (popcount b)) masks
  in
  (* left-deep enumeration: the right input of every join is a single
     base relation, which is where index-nested-loops applies anyway *)
  List.iter
    (fun mask ->
      if popcount mask >= 2 then begin
        let rows = Estimate.subset_rows env (mask_aliases aliases mask) in
        let best = ref None in
        let consider entry =
          match !best with
          | Some b when Cost.total params b.e_cost <= Cost.total params entry.e_cost
            ->
              ()
          | _ -> best := Some entry
        in
        let try_split require_connected =
          for i = 0 to n - 1 do
            let r = 1 lsl i in
            if mask land r <> 0 then begin
              let l = mask land lnot r in
              match (Hashtbl.find_opt table l, Hashtbl.find_opt table r) with
              | Some le, Some re ->
                  let la = mask_aliases aliases l
                  and ra = mask_aliases aliases r in
                  if (not require_connected) || connected block la ra then
                    List.iter consider
                      (join_candidates ?shared params env block le re rows)
              | _ -> ()
            end
          done
        in
        try_split true;
        if !best = None then try_split false;
        match !best with
        | Some e -> Hashtbl.replace table mask e
        | None -> ()
      end)
    masks;
  Hashtbl.find table full

let optimize_greedy ?shared params env block base_entries =
  (* left-deep: start from the cheapest entry, repeatedly add the
     relation that yields the cheapest join, preferring connected ones *)
  let by_cost =
    List.sort
      (fun a b ->
        Float.compare (Cost.total params a.e_cost) (Cost.total params b.e_cost))
      base_entries
  in
  match by_cost with
  | [] -> invalid_arg "optimize_greedy: empty block"
  | first :: rest ->
      let rec go acc remaining =
        match remaining with
        | [] -> acc
        | _ ->
            let acc_aliases = plan_aliases acc.e_plan in
            let candidates =
              List.map
                (fun r ->
                  let rows =
                    Estimate.subset_rows env
                      (acc_aliases @ plan_aliases r.e_plan)
                  in
                  (r, join_candidates ?shared params env block acc r rows))
                remaining
            in
            let connected_first =
              List.filter
                (fun (r, _) ->
                  connected block acc_aliases (plan_aliases r.e_plan))
                candidates
            in
            let pool = if connected_first <> [] then connected_first else candidates in
            let best =
              List.fold_left
                (fun best (r, cands) ->
                  match (best, best_of params cands) with
                  | None, Some e -> Some (r, e)
                  | Some (_, be), Some e
                    when Cost.total params e.e_cost < Cost.total params be.e_cost
                    ->
                      Some (r, e)
                  | best, _ -> best)
                None pool
            in
            (match best with
            | Some (r, e) ->
                go e (List.filter (fun x -> x != r) remaining)
            | None -> acc)
      in
      go first rest

let optimize_block ?(params = Cost.default_params) ?shared cat
    (block : Logical.block) =
  if block.relations = [] then invalid_arg "optimize_block: no relations";
  (match Logical.block_wellformed cat block with
  | Ok () -> ()
  | Error es ->
      invalid_arg ("optimize_block: " ^ String.concat "; " es));
  let env = Estimate.env cat block in
  let aliases = List.map (fun (r : Logical.relation) -> r.alias) block.relations in
  let base_entries =
    List.map
      (fun rel ->
        let plan, rows, cost = access_plan ?shared params env block rel in
        { e_plan = plan; e_rows = rows; e_cost = cost })
      block.relations
  in
  let joined =
    match base_entries with
    | [ single ] -> single
    | _ when List.length aliases <= dp_limit ->
        optimize_dp ?shared params env block aliases base_entries
    | _ -> optimize_greedy ?shared params env block base_entries
  in
  (* result output: write the projected rows out *)
  let out_width = Estimate.output_width env block.out aliases in
  let output_cost =
    {
      Cost.seeks = 0.;
      pages_read = 0.;
      pages_written = Cost.pages params (joined.e_rows *. out_width);
      cpu = joined.e_rows;
    }
  in
  (match shared with
  | Some cache -> register_accesses cache joined.e_plan
  | None -> ());
  {
    plan = joined.e_plan;
    rows = joined.e_rows;
    cost = Cost.add joined.e_cost output_cost;
  }

let query_cost ?(params = Cost.default_params) cat (q : Logical.query) =
  (* the blocks of one query share base-table accesses (outer-union
     decomposition reads the same tables repeatedly) *)
  let shared = Hashtbl.create 16 in
  let results = List.map (optimize_block ~params ~shared cat) q.blocks in
  let total =
    List.fold_left (fun t r -> t +. Cost.total params r.cost) 0. results
  in
  (results, total)

let query_scalar_cost ?params cat q = snd (query_cost ?params cat q)

let workload_cost ?params cat workload =
  List.fold_left
    (fun acc (q, weight) -> acc +. (weight *. query_scalar_cost ?params cat q))
    0. workload

(* ------------------------------------------------------------------ *)
(* write costing                                                       *)
(* ------------------------------------------------------------------ *)

let write_cost ?(params = Cost.default_params) cat (u : Logical.update) =
  let shared = Hashtbl.create 8 in
  List.fold_left
    (fun acc (w : Logical.write) ->
      let tbl = Rschema.table cat w.Logical.w_table in
      let rows, locate_cost =
        match w.Logical.w_locate with
        | Some block ->
            let r = optimize_block ~params ~shared cat block in
            (r.rows *. w.Logical.w_per_row, Cost.total params r.cost)
        | None -> (w.Logical.w_per_row, 0.)
      in
      let width = Rschema.row_width tbl in
      let indexes = float_of_int (List.length tbl.Rschema.indexed) in
      let per_row =
        match w.Logical.w_kind with
        | Logical.W_insert | Logical.W_delete ->
            (* the row's page plus maintenance of every index *)
            {
              Cost.seeks = 1. +. indexes;
              pages_read = 0.;
              pages_written = Float.max 1. (width /. params.Cost.page_size);
              cpu = 1. +. indexes;
            }
        | Logical.W_update ->
            (* rewrite the row in place; indexes on the changed column
               only — approximated as one *)
            {
              Cost.seeks = 2.;
              pages_read = 0.;
              pages_written = 1.;
              cpu = 2.;
            }
      in
      acc +. locate_cost +. Cost.total params (Cost.scale rows per_row))
    0. u.Logical.writes

let updates_cost ?params cat updates =
  List.fold_left
    (fun acc (u, weight) -> acc +. (weight *. write_cost ?params cat u))
    0. updates

let mixed_workload_cost ?params cat ~queries ~updates =
  workload_cost ?params cat queries +. updates_cost ?params cat updates
