"""Storage substrate: an embedded Mongo-like document store and a file store.

The paper backs the core server with MongoDB (three collections: integrated
webpages, test info, participant responses) plus a filesystem storage area
keyed by test id. :class:`DocumentStore` reproduces the contract the server
needs (insert, top-level equality queries, ``$set`` updates);
:class:`FileStore` reproduces the per-test resource folders.
"""

from repro.storage.documentstore import Collection, DocumentStore
from repro.storage.filestore import FileStore

__all__ = ["Collection", "DocumentStore", "FileStore"]
