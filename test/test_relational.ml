open Legodb
open Test_util

let col ?(nullable = false) ?(distinct = 10.) ?(null_frac = 0.) ?(width = 8.)
    name ctype =
  {
    Rschema.cname = name;
    ctype;
    nullable;
    stats =
      { Rschema.distinct; null_frac; v_min = None; v_max = None; avg_width = width };
  }

let people =
  {
    Rschema.tname = "People";
    key = "People_id";
    columns =
      [
        col "People_id" Rtype.R_int ~width:4. ~distinct:100.;
        col "name" (Rtype.R_string (Some 20)) ~width:20. ~distinct:100.;
        col "age" Rtype.R_int ~width:4. ~distinct:50.;
      ];
    fks = [];
    indexed = [ "People_id" ];
    card = 100.;
  }

let pets =
  {
    Rschema.tname = "Pets";
    key = "Pets_id";
    columns =
      [
        col "Pets_id" Rtype.R_int ~width:4. ~distinct:300.;
        (* nullable: the NULL-probe cases below store NULLs here, and
           the store refuses a NULL in a NOT NULL column *)
        col "species" (Rtype.R_string (Some 10)) ~width:10. ~distinct:5.
          ~nullable:true;
        col "parent_People" Rtype.R_int ~width:4. ~distinct:100.
          ~nullable:true;
      ];
    fks = [ ("parent_People", "People") ];
    indexed = [ "Pets_id"; "parent_People" ];
    card = 300.;
  }

let catalog = { Rschema.tables = [ people; pets ] }

let fill_db () =
  let db = Storage.create catalog in
  for i = 0 to 99 do
    Storage.insert db "People"
      [|
        Rtype.V_int i;
        Rtype.V_string (Printf.sprintf "name%02d" i);
        Rtype.V_int (20 + (i mod 50));
      |]
  done;
  for i = 0 to 299 do
    Storage.insert db "Pets"
      [|
        Rtype.V_int i;
        Rtype.V_string (if i mod 2 = 0 then "cat" else "dog");
        Rtype.V_int (i mod 100);
      |]
  done;
  db

let suite =
  [
    case "rtype widths" (fun () ->
        check_int "int" 4 (Rtype.width Rtype.R_int);
        check_int "char" 50 (Rtype.width (Rtype.R_string (Some 50)));
        check_int "string" Rtype.default_string_width
          (Rtype.width (Rtype.R_string None)));
    case "value compare total order" (fun () ->
        check_bool "null smallest" true
          (Rtype.compare_value Rtype.V_null (Rtype.V_int 0) < 0);
        check_bool "ints" true (Rtype.compare_value (Rtype.V_int 1) (Rtype.V_int 2) < 0);
        check_bool "strings" true
          (Rtype.compare_value (Rtype.V_string "a") (Rtype.V_string "b") < 0));
    case "sql literal escaping" (fun () ->
        check_string "quoted" "'it''s'" (Rtype.value_to_sql (Rtype.V_string "it's")));
    case "catalog validates" (fun () ->
        check_bool "ok" true (Result.is_ok (Rschema.validate catalog)));
    case "catalog rejects bad fk" (fun () ->
        let bad = { Rschema.tables = [ { pets with fks = [ ("nope", "People") ] } ] } in
        check_bool "error" true (Result.is_error (Rschema.validate bad)));
    case "catalog rejects duplicate columns" (fun () ->
        let bad =
          { Rschema.tables = [ { people with columns = people.columns @ [ col "age" Rtype.R_int ] } ] }
        in
        check_bool "error" true (Result.is_error (Rschema.validate bad)));
    case "row width sums columns" (fun () ->
        check_bool "28" true (abs_float (Rschema.row_width people -. 28.) < 1e-9));
    case "add_indexes" (fun () ->
        let cat = Rschema.add_indexes catalog [ ("People", "name"); ("People", "ghost") ] in
        check_bool "name indexed" true (Rschema.has_index (Rschema.table cat "People") "name");
        check_bool "ghost ignored" false
          (Rschema.has_index (Rschema.table cat "People") "ghost"));
    case "ddl contains keys and references" (fun () ->
        let ddl = Sql.ddl catalog in
        check_bool "pk" true (contains ddl "PRIMARY KEY");
        check_bool "fk" true (contains ddl "REFERENCES People(People_id)");
        check_bool "index" true (contains ddl "CREATE INDEX idx_Pets_parent_People"));
    case "sql select printing" (fun () ->
        let s =
          Sql.Select
            {
              Sql.proj = [ Sql.col "p" "name" ];
              from = [ { Sql.table = "People"; alias = "p" } ];
              where = [ Sql.eq (Sql.Col (Sql.col "p" "age")) (Sql.Int 30) ];
            }
        in
        let str = Sql.to_string s in
        check_bool "select" true (contains str "SELECT p.name");
        check_bool "where" true (contains str "WHERE p.age = 30"));
    case "storage insert and scan" (fun () ->
        let db = fill_db () in
        check_int "people" 100 (Storage.row_count db "People");
        check_int "pets" 300 (Storage.row_count db "Pets");
        check_int "total" 400 (Storage.total_rows db);
        check_int "scan" 100 (Seq.length (Storage.scan db "People")));
    case "storage arity check" (fun () ->
        let db = fill_db () in
        match Storage.insert db "People" [| Rtype.V_int 1 |] with
        | () -> Alcotest.fail "expected arity error"
        | exception Invalid_argument _ -> ());
    case "indexed lookup" (fun () ->
        let db = fill_db () in
        let rows = Storage.lookup db ~table:"Pets" ~column:"parent_People" (Rtype.V_int 5) in
        check_int "three pets" 3 (List.length rows));
    case "unindexed lookup falls back to scan" (fun () ->
        let db = fill_db () in
        let rows = Storage.lookup db ~table:"Pets" ~column:"species" (Rtype.V_string "cat") in
        check_int "cats" 150 (List.length rows));
    case "column positions" (fun () ->
        let db = fill_db () in
        check_int "key first" 0 (Storage.column_position db ~table:"People" ~column:"People_id");
        check_int "age third" 2 (Storage.column_position db ~table:"People" ~column:"age"));
    case "freeze carries the statistics kept at insert" (fun () ->
        let db = fill_db () in
        let db = Storage.freeze db in
        let tbl = Rschema.table (Storage.catalog db) "Pets" in
        check_bool "card" true (tbl.Rschema.card = 300.);
        let species = Rschema.column tbl "species" in
        check_bool "distinct 2" true (species.Rschema.stats.distinct = 2.);
        let age = Rschema.column (Rschema.table (Storage.catalog db) "People") "age" in
        check_bool "min" true (age.Rschema.stats.v_min = Some 20);
        check_bool "max" true (age.Rschema.stats.v_max = Some 69));
    (* SQL NULL semantics: a NULL key matches nothing, on every lookup
       path, exactly as the executor's join methods already assume *)
    case "null probe matches nothing (indexed path)" (fun () ->
        let db = fill_db () in
        Storage.insert db "Pets"
          [| Rtype.V_int 300; Rtype.V_string "cat"; Rtype.V_null |];
        check_int "null probe" 0
          (List.length
             (Storage.lookup db ~table:"Pets" ~column:"parent_People"
                Rtype.V_null));
        check_int "null key probe" 0
          (List.length
             (Storage.lookup db ~table:"Pets" ~column:"Pets_id" Rtype.V_null)));
    case "null probe matches nothing (scan path)" (fun () ->
        let db = fill_db () in
        Storage.insert db "Pets"
          [| Rtype.V_int 300; Rtype.V_null; Rtype.V_int 0 |];
        check_int "null probe" 0
          (List.length
             (Storage.lookup db ~table:"Pets" ~column:"species" Rtype.V_null));
        (* and the null row is not matched by a real probe either *)
        check_int "cats unchanged" 150
          (List.length
             (Storage.lookup db ~table:"Pets" ~column:"species"
                (Rtype.V_string "cat"))));
    case "insert does not index nulls" (fun () ->
        let db = fill_db () in
        Storage.insert db "Pets"
          [| Rtype.V_int 300; Rtype.V_string "cat"; Rtype.V_null |];
        check_int "row stored" 301 (Storage.row_count db "Pets");
        check_int "real probe unchanged" 3
          (List.length
             (Storage.lookup db ~table:"Pets" ~column:"parent_People"
                (Rtype.V_int 5))));
    case "freeze: immutable, independent snapshot" (fun () ->
        let db = fill_db () in
        let snap = Storage.freeze db in
        check_bool "frozen" true (Storage.is_frozen snap);
        check_bool "original not frozen" false (Storage.is_frozen db);
        (match
           Storage.insert snap "Pets"
             [| Rtype.V_int 300; Rtype.V_string "cat"; Rtype.V_int 5 |]
         with
        | () -> Alcotest.fail "insert into a frozen snapshot must raise"
        | exception Invalid_argument _ -> ());
        Storage.insert db "Pets"
          [| Rtype.V_int 300; Rtype.V_string "cat"; Rtype.V_int 5 |];
        check_int "snapshot rows stable" 300 (Storage.row_count snap "Pets");
        check_int "snapshot index stable" 3
          (List.length
             (Storage.lookup snap ~table:"Pets" ~column:"parent_People"
                (Rtype.V_int 5))));
    case "vec growth leaves no stale rows in spare slots" (fun () ->
        let v = Storage.Vec.create () in
        for i = 0 to 16 do
          Storage.Vec.push v [| Rtype.V_int i |]
        done;
        (* the push that grew the array must not have parked the pushed
           element in the spare capacity: spare slots hold the
           already-live element 0, so popping/truncating can never keep
           dead rows reachable *)
        check_bool "grew" true (Storage.Vec.capacity v > Storage.Vec.length v);
        for j = Storage.Vec.length v to Storage.Vec.capacity v - 1 do
          check_bool
            (Printf.sprintf "spare slot %d holds element 0" j)
            true
            (v.Storage.Vec.data.(j) == v.Storage.Vec.data.(0))
        done;
        (* and the live prefix is intact *)
        for i = 0 to 16 do
          check_bool
            (Printf.sprintf "element %d" i)
            true
            (Storage.Vec.get v i = [| Rtype.V_int i |])
        done);
  ]
