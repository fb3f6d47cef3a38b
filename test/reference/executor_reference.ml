(* Frozen reference: the plan interpreter as it was before plans were
   compiled into slot-resolved closures, kept verbatim apart from this
   comment and the [open Legodb_optimizer].  The differential suite in
   test/test_executor.ml holds {!Executor} to it: the same rows in the
   same order and bit-identical [measures] on every plan, and
   [Invalid_argument] for an unknown alias or an unbound slot.  One
   documented deviation: an unknown column raises [Not_found] here
   (from [Storage.column_position]), [Invalid_argument] in {!Executor},
   as both interfaces document. *)

open Legodb_relational
open Legodb_optimizer

type tuple = (string * Storage.row) list

type measures = {
  tuples_scanned : int;
  index_probes : int;
  join_tuples : int;
  bytes_read : float;
  output_rows : int;
}

let zero_measures =
  {
    tuples_scanned = 0;
    index_probes = 0;
    join_tuples = 0;
    bytes_read = 0.;
    output_rows = 0;
  }

type state = {
  db : Storage.t;
  params : Rtype.value array;  (* slot k binds [Logical.O_param k] *)
  mutable m : measures;
}

let row_bytes (row : Storage.row) =
  Array.fold_left (fun b v -> b +. float_of_int (Rtype.value_width v)) 0. row

let value_of st tuple plan_tables (alias, column) =
  match List.assoc_opt alias tuple with
  | None -> invalid_arg (Printf.sprintf "Executor: alias %s not in tuple" alias)
  | Some row ->
      let table =
        match List.assoc_opt alias plan_tables with
        | Some t -> t
        | None -> invalid_arg (Printf.sprintf "Executor: unknown alias %s" alias)
      in
      row.(Storage.column_position st.db ~table ~column)

let eval_cmp cmp l r =
  if Rtype.is_null l || Rtype.is_null r then false
  else
    let c = Rtype.compare_value l r in
    match cmp with
    | Logical.C_eq -> c = 0
    | Logical.C_ne -> c <> 0
    | Logical.C_lt -> c < 0
    | Logical.C_le -> c <= 0
    | Logical.C_gt -> c > 0
    | Logical.C_ge -> c >= 0

let param st k =
  if k < 0 || k >= Array.length st.params then
    invalid_arg (Printf.sprintf "Executor: parameter slot %d is unbound" k)
  else st.params.(k)

let eval_pred st plan_tables tuple (p : Logical.pred) =
  let l = value_of st tuple plan_tables p.lhs in
  let r =
    match p.rhs with
    | Logical.O_const v -> v
    | Logical.O_param k -> param st k
    | Logical.O_col c -> value_of st tuple plan_tables c
  in
  eval_cmp p.cmp l r

let plan_tables plan =
  List.map
    (fun (r : Logical.relation) -> (r.alias, r.table))
    (Physical.relations plan)

let rec eval st plan : tuple list =
  let tables = plan_tables plan in
  match plan with
  | Physical.Scan { rel; access; filters } -> (
      let keep row =
        let tuple = [ (rel.Logical.alias, row) ] in
        List.for_all (eval_pred st tables tuple) filters
      in
      match access with
      | Physical.Seq_scan ->
          Seq.fold_left
            (fun acc row ->
              st.m <-
                {
                  st.m with
                  tuples_scanned = st.m.tuples_scanned + 1;
                  bytes_read = st.m.bytes_read +. row_bytes row;
                };
              if keep row then [ (rel.Logical.alias, row) ] :: acc else acc)
            [] (Storage.scan st.db rel.Logical.table)
          |> List.rev
      | Physical.Index_probe { column } ->
          let const =
            List.find_map
              (fun (p : Logical.pred) ->
                match (p.cmp, p.rhs) with
                | Logical.C_eq, Logical.O_const v
                  when String.equal (snd p.lhs) column ->
                    Some v
                | Logical.C_eq, Logical.O_param k
                  when String.equal (snd p.lhs) column ->
                    Some (param st k)
                | _ -> None)
              filters
          in
          (match const with
          | None ->
              invalid_arg "Executor: index probe without an equality filter"
          | Some v ->
              st.m <- { st.m with index_probes = st.m.index_probes + 1 };
              let rows = Storage.lookup st.db ~table:rel.Logical.table ~column v in
              List.filter_map
                (fun row ->
                  st.m <-
                    { st.m with bytes_read = st.m.bytes_read +. row_bytes row };
                  if keep row then Some [ (rel.Logical.alias, row) ] else None)
                rows))
  | Physical.Join { jm; left; right; conds; extra } -> (
      let check_extras tuple = List.for_all (eval_pred st tables tuple) extra in
      let emit acc tuple =
        st.m <- { st.m with join_tuples = st.m.join_tuples + 1 };
        if check_extras tuple then tuple :: acc else acc
      in
      match jm with
      | Physical.Hash_join ->
          let ltuples = eval st left and rtuples = eval st right in
          let key_of cols tuple =
            List.map (fun c -> value_of st tuple tables c) cols
          in
          (* SQL join semantics: NULL compares equal to nothing, so a
             NULL-keyed tuple can never match.  The hash table compares
             keys structurally (V_null = V_null), so NULL-keyed tuples
             must be skipped on both sides or hash joins would return
             rows the other join methods reject through eval_cmp. *)
          let null_key = List.exists Rtype.is_null in
          let lcols = List.map fst conds and rcols = List.map snd conds in
          let index = Hashtbl.create (List.length rtuples) in
          List.iter
            (fun rt ->
              let k = key_of rcols rt in
              if not (null_key k) then Hashtbl.add index k rt)
            rtuples;
          List.fold_left
            (fun acc lt ->
              let k = key_of lcols lt in
              if null_key k then acc
              else
                let matches = Hashtbl.find_all index k in
                List.fold_left (fun acc rt -> emit acc (lt @ rt)) acc matches)
            [] ltuples
          |> List.rev
      | Physical.Index_nl { column } -> (
          match right with
          | Physical.Scan { rel; filters; _ } ->
              let ltuples = eval st left in
              let probe_cond =
                List.find_opt
                  (fun ((_, _), (ra, rc)) ->
                    String.equal ra rel.Logical.alias && String.equal rc column)
                  conds
              in
              (match probe_cond with
              | None -> invalid_arg "Executor: index-nl join without probe cond"
              | Some ((lcol, _) as probe) ->
                  let rest_conds = List.filter (fun c -> not (c == probe)) conds in
                  List.fold_left
                    (fun acc lt ->
                      let v = value_of st lt tables lcol in
                      (* the probe condition is delegated to the index,
                         which finds V_null = V_null structurally: a
                         NULL probe key must not probe at all *)
                      if Rtype.is_null v then acc
                      else begin
                        st.m <-
                          { st.m with index_probes = st.m.index_probes + 1 };
                        let rows =
                          Storage.lookup st.db ~table:rel.Logical.table ~column
                            v
                        in
                        List.fold_left
                          (fun acc row ->
                            st.m <-
                              {
                                st.m with
                                bytes_read = st.m.bytes_read +. row_bytes row;
                              };
                            let rt = [ (rel.Logical.alias, row) ] in
                            let tuple = lt @ rt in
                            let ok =
                              List.for_all (eval_pred st tables rt) filters
                              && List.for_all
                                   (fun (lc, rc) ->
                                     eval_cmp Logical.C_eq
                                       (value_of st tuple tables lc)
                                       (value_of st tuple tables rc))
                                   rest_conds
                            in
                            if ok then emit acc tuple else acc)
                          acc rows
                      end)
                    [] ltuples
                  |> List.rev)
          | Physical.Join _ ->
              invalid_arg "Executor: index-nl join needs a base right input")
      | Physical.Nl_join ->
          let ltuples = eval st left and rtuples = eval st right in
          List.fold_left
            (fun acc lt ->
              List.fold_left
                (fun acc rt ->
                  let tuple = lt @ rt in
                  let ok =
                    List.for_all
                      (fun (lc, rc) ->
                        eval_cmp Logical.C_eq
                          (value_of st tuple tables lc)
                          (value_of st tuple tables rc))
                      conds
                  in
                  if ok then emit acc tuple else acc)
                acc rtuples)
            [] ltuples
          |> List.rev)

let run_block ?(params = [||]) db plan out =
  let st = { db; params; m = zero_measures } in
  let tuples = eval st plan in
  let tables = plan_tables plan in
  let project tuple =
    match out with
    | [] ->
        List.concat_map (fun (_, (row : Storage.row)) -> Array.to_list row) tuple
    | cols -> List.map (fun c -> value_of st tuple tables c) cols
  in
  let rows = List.map project tuples in
  (rows, { st.m with output_rows = List.length rows })

let run_query db blocks =
  (* reverse-accumulate: [rows @ r] per block is quadratic in the
     output size across the many outer-union blocks a published
     subtree generates *)
  let rev_rows, m =
    List.fold_left
      (fun (rows, m) (plan, out) ->
        let r, m' = run_block db plan out in
        ( List.rev_append r rows,
          {
            tuples_scanned = m.tuples_scanned + m'.tuples_scanned;
            index_probes = m.index_probes + m'.index_probes;
            join_tuples = m.join_tuples + m'.join_tuples;
            bytes_read = m.bytes_read +. m'.bytes_read;
            output_rows = m.output_rows + m'.output_rows;
          } ))
      ([], zero_measures) blocks
  in
  (List.rev rev_rows, m)
