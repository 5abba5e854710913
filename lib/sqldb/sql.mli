(** A small SQL front end over {!Db} — enough of the language for the
    paper's four basic operations (Table 4) to be written the way a
    SQLite client would write them:

    {v
      INSERT INTO kv VALUES (42, 'payload')
      SELECT value FROM kv WHERE key = 42
      UPDATE kv SET value = 'new' WHERE key = 42
      DELETE FROM kv WHERE key = 42
    v}

    Statements are parsed (with real errors), charged as part of the SQL
    compute the DB layer models, and executed against the B+tree. *)

exception Parse_error of string

type result =
  | Ok_affected of int  (** rows affected (0 or 1) *)
  | Row of string  (** SELECT hit *)
  | Empty  (** SELECT miss *)

val exec : Db.t -> core:int -> string -> result
(** Parse and run one statement. The table name must match the one the
    {!Db.t} was created with.
    @raise Parse_error on syntax errors or a wrong table name. *)
