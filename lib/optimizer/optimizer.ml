open Legodb_relational

type result = { plan : Physical.plan; rows : float; cost : Cost.t }

let dp_limit = 10

(* The join-ordering core below is the mask-indexed fast path: alias
   sets are int bitmasks, per-split questions (connectivity, spanning
   predicates, subtree widths, subset cardinalities, plan signatures)
   are answered from per-block precomputed arrays, and the DP walks
   masks by a single ascending scan.  It must stay bit-identical to the
   frozen pre-rewrite code in test/reference/optimizer_reference.ml —
   same best plan, same cost floats — which pins down every float
   association order: see the comments on [extend_width] and
   [optimize_dp].  The differential suite in test/test_optimizer_perf.ml
   holds the two implementations together. *)

(* ------------------------------------------------------------------ *)
(* access-path selection                                               *)
(* ------------------------------------------------------------------ *)

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
   core repeated per partition) are also recognized as shared.  This
   recursive form is the specification; the DP never calls it per
   candidate — each [entry] interns its signature and a join's
   signature is assembled in O(children) from the children's interned
   strings (see [join_signature]). *)
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

(* ------------------------------------------------------------------ *)
(* per-block context: aliases as integer ids, preds as bitmasks        *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go m n = if m = 0 then n else go (m lsr 1) (n + (m land 1)) in
  go m 0

(* index of the highest set bit; [m > 0] *)
let top_bit m =
  let rec go m n = if m <= 1 then n else go (m lsr 1) (n + 1) in
  go m 0

(* Everything the inner DP loop consults per split, computed once per
   block: an alias's id is its position in the relation list, each
   predicate carries the bitmask of the aliases it mentions (its
   left/right bit pair for a join predicate) and its memoized
   selectivity, and each alias its clamped cardinality and carried
   width.  With these, connectivity and spanning-predicate selection
   are O(1) bit tests per predicate instead of alias-list membership
   walks. *)
type ctx = {
  c_params : Cost.params;
  c_env : Estimate.env;
  c_block : Logical.block;
  c_names : string array;  (* alias by id *)
  c_tnames : string array;  (* logical table name by id, for signatures *)
  c_preds : Logical.pred array;  (* block.preds, in block order *)
  c_pmask : int array;  (* alias bitmask of each pred *)
  c_pjoin : bool array;  (* pred spans two distinct aliases *)
  c_psel : float array;  (* memoized selectivity of each pred *)
  c_card : float array;  (* max(row_floor, card) per alias *)
  c_carry : float array;  (* per-alias carried width (see extend_width) *)
}

let context params env (block : Logical.block) =
  let names =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.alias) block.relations)
  in
  let tnames =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.table) block.relations)
  in
  let n = Array.length names in
  let preds = Array.of_list block.preds in
  let pmask =
    Array.map
      (fun p ->
        List.fold_left
          (fun m a -> m lor (1 lsl Estimate.alias_id env a))
          0 (Logical.pred_aliases p))
      preds
  in
  let pjoin = Array.map (fun pm -> popcount pm = 2) pmask in
  let psel = Array.map (Estimate.pred_selectivity env) preds in
  let card =
    Array.init n (fun i ->
        Float.max Estimate.row_floor (Estimate.table_at env i).Rschema.card)
  in
  (* Width contributed by one alias to an intermediate result: plans
     project eagerly, so a tuple flowing above a join carries only the
     columns the block still needs (projection columns and predicate
     columns). *)
  let carry =
    Array.init n (fun i ->
        let a = names.(i) in
        let tbl = Estimate.table_at env i in
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
        List.fold_left
          (fun acc c ->
            match Rschema.find_column tbl c with
            | Some col -> acc +. col.Rschema.stats.avg_width
            | None -> acc)
          0. needed)
  in
  {
    c_params = params;
    c_env = env;
    c_block = block;
    c_names = names;
    c_tnames = tnames;
    c_preds = preds;
    c_pmask = pmask;
    c_pjoin = pjoin;
    c_psel = psel;
    c_card = card;
    c_carry = carry;
  }

(* ------------------------------------------------------------------ *)
(* join costing                                                        *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_plan : Physical.plan;
  e_rows : float;
  e_cost : Cost.t;
  e_mask : int;  (* the subtree's aliases, as a bitmask *)
  e_width : float;  (* subtree width, fold-accumulated in plan order *)
  e_sig : string Lazy.t;  (* interned signature; forced only with ?shared *)
}

let plan_aliases plan =
  List.map (fun (r : Logical.relation) -> r.alias) (Physical.relations plan)

(* Subtree width of [w0]'s plan extended by [plan]'s relations.  The
   reference folds [fun w a -> w +. carry a +. 8.] over the joined
   plan's aliases in plan order; since a join's relation list is
   [relations left @ relations right], continuing the fold from the
   left entry's stored width over the right side's relations
   reproduces the reference float exactly (fold over a concatenation
   is the fold over the suffix started from the fold over the
   prefix). *)
let extend_width ctx w0 plan =
  List.fold_left
    (fun w (r : Logical.relation) ->
      w +. ctx.c_carry.(Estimate.alias_id ctx.c_env r.alias) +. 8.)
    w0 (Physical.relations plan)

(* spanning predicates between two disjoint alias masks, in block
   order: a join predicate's own mask is its (left-bit, right-bit)
   pair, so membership is two bit tests *)
let spanning_preds ctx lmask rmask =
  let out = ref [] in
  for i = Array.length ctx.c_preds - 1 downto 0 do
    if
      ctx.c_pjoin.(i)
      && ctx.c_pmask.(i) land lmask <> 0
      && ctx.c_pmask.(i) land rmask <> 0
    then out := ctx.c_preds.(i) :: !out
  done;
  !out

let connected ctx lmask rmask =
  let n = Array.length ctx.c_preds in
  let rec go i =
    i < n
    && ((ctx.c_pjoin.(i)
        && ctx.c_pmask.(i) land lmask <> 0
        && ctx.c_pmask.(i) land rmask <> 0)
       || go (i + 1))
  in
  go 0

let split_conds ctx lmask preds =
  (* equality column pairs oriented left-first; everything else extra *)
  List.fold_left
    (fun (conds, extra) (p : Logical.pred) ->
      match (p.cmp, p.rhs) with
      | Logical.C_eq, Logical.O_col rc ->
          if lmask land (1 lsl Estimate.alias_id ctx.c_env (fst p.lhs)) <> 0
          then ((p.lhs, rc) :: conds, extra)
          else ((rc, p.lhs) :: conds, extra)
      | _ -> (conds, p :: extra))
    ([], []) preds

(* A join's signature assembled in O(children) from the children's
   interned signatures — string-identical to [plan_signature] of the
   corresponding [Physical.Join], because a join signature depends
   only on the two child signatures and the (alias-resolved) conds
   and extra predicates. *)
let join_signature ctx lsig rsig conds extra =
  let table_of a = ctx.c_tnames.(Estimate.alias_id ctx.c_env a) in
  let cond_sig ((la, lc), (ra, rc)) =
    let a = table_of la ^ "." ^ lc and b = table_of ra ^ "." ^ rc in
    if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
  in
  let extra_sig (p : Logical.pred) = table_of (fst p.lhs) ^ "." ^ snd p.lhs in
  let subs = List.sort compare [ lsig; rsig ] in
  "join("
  ^ String.concat ";" subs
  ^ "|"
  ^ String.concat ","
      (List.sort compare (List.map cond_sig conds @ List.map extra_sig extra))
  ^ ")"

let access_plan ?shared ctx (rel : Logical.relation) =
  let params = ctx.c_params and env = ctx.c_env in
  let id = Estimate.alias_id env rel.alias in
  let tbl = Estimate.table_at env id in
  let filters = Logical.local_preds ctx.c_block.preds rel.alias in
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
  let plan, cost =
    List.fold_left
      (fun (bp, bc) (p, c) ->
        if Cost.total params c < Cost.total params bc then (p, c) else (bp, bc))
      seq probes
  in
  {
    e_plan = plan;
    e_rows = rows;
    e_cost = cost;
    e_mask = 1 lsl id;
    e_width = extend_width ctx 0. plan;
    e_sig = lazy (plan_signature plan);
  }

let join_candidates ?shared ctx left right rows_out =
  let params = ctx.c_params in
  let preds = spanning_preds ctx left.e_mask right.e_mask in
  let conds, extra = split_conds ctx left.e_mask preds in
  let jmask = left.e_mask lor right.e_mask in
  let jwidth = extend_width ctx left.e_width right.e_plan in
  (* one signature per split, shared by every join method (the
     signature ignores the method); with a cache it is needed for the
     probe anyway, without one it stays an unforced suspension *)
  let jsig =
    match shared with
    | Some _ ->
        Lazy.from_val
          (join_signature ctx (Lazy.force left.e_sig) (Lazy.force right.e_sig)
             conds extra)
    | None ->
        lazy
          (join_signature ctx (Lazy.force left.e_sig) (Lazy.force right.e_sig)
             conds extra)
  in
  let out = ref [] in
  let push jm cost =
    out :=
      {
        e_plan =
          Physical.Join
            { jm; left = left.e_plan; right = right.e_plan; conds; extra };
        e_rows = rows_out;
        e_cost = cost;
        e_mask = jmask;
        e_width = jwidth;
        e_sig = jsig;
      }
      :: !out
  in
  (* a join subtree already computed by an earlier block of the same
     query is reused from the buffer pool: CPU to re-emit, no I/O *)
  (match shared with
  | Some cache when Hashtbl.mem cache (Lazy.force jsig) ->
      push Physical.Hash_join
        { Cost.seeks = 0.; pages_read = 0.; pages_written = 0.; cpu = rows_out }
  | _ -> ());
  (* hash join: build the right input, probe with the left *)
  let build_pages = Cost.pages params (right.e_rows *. right.e_width) in
  let spill =
    if build_pages > params.Cost.memory_pages then
      let probe_pages = Cost.pages params (left.e_rows *. left.e_width) in
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
  (if popcount right.e_mask = 1 && conds <> [] then begin
     let rid = top_bit right.e_mask in
     let ralias = ctx.c_names.(rid) in
     let tbl = Estimate.table_at ctx.c_env rid in
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
     | None -> ()
   end);
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

let optimize_dp ?shared ctx base_entries =
  let params = ctx.c_params in
  let n = Array.length ctx.c_names in
  let full = (1 lsl n) - 1 in
  let table = Array.make (full + 1) None in
  List.iter (fun e -> table.(e.e_mask) <- Some e) base_entries;
  (* memoized Estimate.subset_rows, split into its two folds.  The
     clamped-card product over a mask's aliases in block order equals
     the product over the mask minus its top bit extended by the top
     alias (a left fold over a list extends over its last element), so
     one ascending pass fills the whole array. *)
  let cards = Array.make (full + 1) 1. in
  for m = 1 to full do
    let top = top_bit m in
    cards.(m) <- cards.(m land lnot (1 lsl top)) *. ctx.c_card.(top)
  done;
  let rows = Array.make (full + 1) Estimate.row_floor in
  let rows_of m =
    (* selectivities multiplied in block pred order, exactly like the
       reference's fold over the predicates whose aliases all fall
       inside the subset *)
    let s = ref 1. in
    Array.iteri
      (fun i pm -> if pm land m = pm then s := !s *. ctx.c_psel.(i))
      ctx.c_pmask;
    Float.max Estimate.row_floor (cards.(m) *. !s)
  in
  (* left-deep enumeration: the right input of every join is a single
     base relation, which is where index-nested-loops applies anyway.
     Every strict submask of [mask] is numerically smaller, so a
     single ascending scan visits masks in a valid DP order — the
     popcount-sorted work list of the reference, without materializing
     or sorting 2^n masks. *)
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      rows.(mask) <- rows_of mask;
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
            match (table.(l), table.(r)) with
            | Some le, Some re ->
                if (not require_connected) || connected ctx l r then
                  List.iter consider
                    (join_candidates ?shared ctx le re rows.(mask))
            | _ -> ()
          end
        done
      in
      try_split true;
      if Option.is_none !best then try_split false;
      match !best with Some _ as b -> table.(mask) <- b | None -> ()
    end
  done;
  match table.(full) with Some e -> e | None -> raise Not_found

let optimize_greedy ?shared ctx base_entries =
  (* left-deep: start from the cheapest entry, repeatedly add the
     relation that yields the cheapest join, preferring connected ones.
     Cardinalities still go through the list-based
     [Estimate.subset_rows]: the greedy accumulator's aliases are in
     plan order, not block order, and the reference multiplies them in
     that order. *)
  let params = ctx.c_params in
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
                    Estimate.subset_rows ctx.c_env
                      (acc_aliases @ plan_aliases r.e_plan)
                  in
                  (r, join_candidates ?shared ctx acc r rows))
                remaining
            in
            let connected_first =
              List.filter
                (fun (r, _) -> connected ctx acc.e_mask r.e_mask)
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
  let ctx = context params env block in
  let aliases = List.map (fun (r : Logical.relation) -> r.alias) block.relations in
  let base_entries = List.map (access_plan ?shared ctx) block.relations in
  let joined =
    match base_entries with
    | [ single ] -> single
    | _ when List.length aliases <= dp_limit ->
        optimize_dp ?shared ctx base_entries
    | _ -> optimize_greedy ?shared ctx base_entries
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
