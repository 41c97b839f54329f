"""The end-to-end benchmark ledger (see ``ledger/run.py``)."""
